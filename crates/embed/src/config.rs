//! Encoder hyper-parameters.

use crate::augment::Augmentation;

/// Hyper-parameters of the entity encoder.
///
/// Defaults follow Appendix B where a paper value exists (label smoothing
/// η = 0.075, weight decay 1e-2); learning rate and epochs are re-tuned for
/// the shallow substitute (the paper's 4e-5 over 20 epochs is specific to
/// BERT fine-tuning).
#[derive(Clone, Debug)]
pub struct EncoderConfig {
    /// Embedding / hidden dimensionality.
    pub dim: usize,
    /// Label-smoothing factor η of Eq. 3.
    pub eta: f32,
    /// Entity-prediction learning rate.
    pub lr: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Per-row gradient clip for sparse embedding updates.
    pub clip: f32,
    /// Entity-prediction epochs.
    pub epochs: usize,
    /// Negatives per sampled-softmax step.
    pub neg_samples: usize,
    /// Cap on training sentences per entity (long-head entities would
    /// otherwise dominate).
    pub max_sentences_per_entity: usize,
    /// InfoNCE temperature.
    pub tau: f32,
    /// Contrastive learning rate.
    pub contrastive_lr: f32,
    /// Contrastive epochs, run by
    /// [`train_contrastive`](crate::contrastive::train_contrastive) after
    /// entity-prediction pretraining.
    pub contrastive_epochs: usize,
    /// Knowledge prefix added to every context.
    pub augment: Augmentation,
    /// Training RNG seed (independent of the world seed).
    pub seed: u64,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self {
            dim: 96,
            eta: 0.075,
            lr: 0.3,
            weight_decay: 1e-4,
            clip: 5.0,
            epochs: 32,
            neg_samples: 256,
            max_sentences_per_entity: 20,
            tau: 0.3,
            contrastive_lr: 0.15,
            contrastive_epochs: 4,
            augment: Augmentation::None,
            seed: 0x5EED,
        }
    }
}

impl EncoderConfig {
    /// Sets the label-smoothing factor (Figure 7's η sweep).
    pub fn with_eta(mut self, eta: f32) -> Self {
        self.eta = eta;
        self
    }

    /// Sets the augmentation source (Table 8).
    pub fn with_augment(mut self, augment: Augmentation) -> Self {
        self.augment = augment;
        self
    }

    /// Sets the training seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_follows_paper_where_applicable() {
        let cfg = EncoderConfig::default();
        assert!((cfg.eta - 0.075).abs() < 1e-6);
        assert_eq!(cfg.augment, Augmentation::None);
    }

    #[test]
    fn builders_compose() {
        let cfg = EncoderConfig::default()
            .with_eta(0.3)
            .with_augment(Augmentation::Introduction)
            .with_seed(9);
        assert_eq!(cfg.eta, 0.3);
        assert_eq!(cfg.augment, Augmentation::Introduction);
        assert_eq!(cfg.seed, 9);
    }
}
