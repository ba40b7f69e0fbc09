/**
 * @file
 * Offline back-propagation trainer with early stopping.
 *
 * Plays the role of the OpenCV neural-network library [27] the paper
 * uses for initial offline training (Figure 4(a)).
 */

#ifndef ACT_NN_TRAINER_HH
#define ACT_NN_TRAINER_HH

#include <cstddef>

#include "nn/dataset.hh"
#include "nn/network.hh"

namespace act
{

/** Trainer knobs. */
struct TrainerConfig
{
    /** Back-propagation step size; the paper uses 0.2. */
    double learning_rate = 0.2;

    /** Upper bound on passes over the training set. */
    std::size_t max_epochs = 1200;

    /** Stop when the epoch misclassification rate drops this low. */
    double target_error = 0.0005;

    /** Epochs without improvement tolerated before stopping. */
    std::size_t patience = 200;
};

/** Outcome of a training run. */
struct TrainResult
{
    std::size_t epochs = 0;        //!< Epochs actually executed.
    double final_error = 1.0;      //!< Training misclassification rate.
    bool converged = false;        //!< Reached target_error.
};

/**
 * Train @p network on @p data, visiting the examples in a fresh
 * Fisher-Yates order every epoch (the draws Dataset::shuffle makes).
 *
 * @param network Network to adjust in place.
 * @param data    Training examples, all topology().inputs wide.
 * @param config  Hyper-parameters.
 * @param rng     Source of shuffling randomness.
 */
TrainResult trainNetwork(MlpNetwork &network, const Dataset &data,
                         const TrainerConfig &config, Rng &rng);

/**
 * Misclassification rate of @p network on @p data
 * (fraction of examples whose 0.5-thresholded output is wrong).
 */
double evaluateNetwork(const MlpNetwork &network, const Dataset &data);

/** Misclassification rate restricted to positive examples. */
double evaluateFalseInvalidRate(const MlpNetwork &network,
                                const Dataset &data);

/** Misclassification rate restricted to negative examples. */
double evaluateFalseValidRate(const MlpNetwork &network,
                              const Dataset &data);

} // namespace act

#endif // ACT_NN_TRAINER_HH
