//! Learning-rate schedules.

/// A learning-rate schedule: maps a global step index to a learning rate.
#[derive(Debug, Clone, PartialEq)]
pub enum LrSchedule {
    /// The same rate forever.
    Constant(f32),
    /// Multiplies the base rate by `gamma` every `step_size` steps.
    StepDecay {
        /// Initial learning rate.
        base: f32,
        /// Steps between decays.
        step_size: usize,
        /// Multiplicative decay factor.
        gamma: f32,
    },
}

impl LrSchedule {
    /// The learning rate at `step` (0-based).
    pub fn lr_at(&self, step: usize) -> f32 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::StepDecay {
                base,
                step_size,
                gamma,
            } => base * gamma.powi((step / step_size.max(1)) as i32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant() {
        let s = LrSchedule::Constant(0.1);
        assert_eq!(s.lr_at(0), 0.1);
        assert_eq!(s.lr_at(1000), 0.1);
    }

    #[test]
    fn step_decay() {
        let s = LrSchedule::StepDecay {
            base: 1.0,
            step_size: 10,
            gamma: 0.5,
        };
        assert_eq!(s.lr_at(0), 1.0);
        assert_eq!(s.lr_at(9), 1.0);
        assert_eq!(s.lr_at(10), 0.5);
        assert_eq!(s.lr_at(20), 0.25);
    }

    #[test]
    fn degenerate_params_do_not_panic() {
        assert_eq!(
            LrSchedule::StepDecay {
                base: 1.0,
                step_size: 0,
                gamma: 0.5
            }
            .lr_at(5),
            1.0 * 0.5f32.powi(5)
        );
    }
}
