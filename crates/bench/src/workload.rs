//! The workloads of the lab's method and figure points: dataset +
//! architecture + partitioning bundles, named by a `model` axis value.

use medsplit_core::{Result, SplitError};
use medsplit_data::{partition, InMemoryDataset, Partition, SyntheticImages, SyntheticTabular};
use medsplit_nn::{Architecture, MlpConfig, ResNetConfig, VggConfig};

/// Which CIFAR stand-in a vision workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// 10 classes (CIFAR-10-like).
    C10,
    /// 100 classes (CIFAR-100-like).
    C100,
}

impl DatasetKind {
    /// Number of classes.
    pub fn classes(&self) -> usize {
        match self {
            DatasetKind::C10 => 10,
            DatasetKind::C100 => 100,
        }
    }
}

/// Which model family a vision workload trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// VGG family.
    Vgg,
    /// ResNet family.
    ResNet,
}

impl ModelKind {
    /// The CPU-trainable (lite) architecture for this family.
    fn lite_arch(&self, classes: usize) -> Architecture {
        match self {
            ModelKind::Vgg => Architecture::Vgg(VggConfig::lite(classes)),
            ModelKind::ResNet => Architecture::ResNet(ResNetConfig::lite(classes)),
        }
    }

    /// The paper-size architecture for this family (analytic accounting
    /// only).
    pub fn full_arch(&self, classes: usize) -> Architecture {
        match self {
            ModelKind::Vgg => Architecture::Vgg(VggConfig::vgg16(classes)),
            ModelKind::ResNet => Architecture::ResNet(ResNetConfig::resnet18(classes)),
        }
    }
}

/// What a lab method or figure point runs on, named by its `model` value:
/// architecture × dataset × shards.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// A lite vision model on IID image shards: `vgg_c10`, `vgg_c100`,
    /// `resnet_c10`, `resnet_c100`.
    Vision(ModelKind, DatasetKind),
    /// The 16→64→32→4 MLP on tabular shards: `tab_iid`, `tab_dir03`,
    /// `tab_dir05` (Dirichlet α = 0.3, 0.5).
    Tabular(Partition),
}

impl Workload {
    /// Parses a `model` value.
    pub fn parse(name: &str) -> Option<Self> {
        use DatasetKind::{C10, C100};
        use ModelKind::{ResNet, Vgg};
        let dirichlet = |alpha| Workload::Tabular(Partition::Dirichlet { alpha });
        Some(match name {
            "vgg_c10" => Workload::Vision(Vgg, C10),
            "vgg_c100" => Workload::Vision(Vgg, C100),
            "resnet_c10" => Workload::Vision(ResNet, C10),
            "resnet_c100" => Workload::Vision(ResNet, C100),
            "tab_iid" => Workload::Tabular(Partition::Iid),
            "tab_dir03" => dirichlet(0.3),
            "tab_dir05" => dirichlet(0.5),
            _ => return None,
        })
    }

    /// The architecture, `platforms` training shards of `train_n`
    /// samples in all, and a test set of `test_n`.
    ///
    /// # Errors
    ///
    /// Propagates generation/partitioning errors.
    pub fn build(
        &self,
        platforms: usize,
        train_n: usize,
        test_n: usize,
        seed: u64,
    ) -> Result<(Architecture, Vec<InMemoryDataset>, InMemoryDataset)> {
        match self {
            Workload::Vision(model, dataset) => {
                let classes = dataset.classes();
                let (train, test) = SyntheticImages::lite(classes, seed)
                    .generate_split(train_n, test_n)
                    .map_err(SplitError::from)?;
                let shards =
                    partition(&train, platforms, &Partition::Iid, seed ^ 0xDEAD).map_err(SplitError::from)?;
                Ok((model.lite_arch(classes), shards, test))
            }
            Workload::Tabular(how) => {
                let (classes, dim) = (4, 16);
                // Class separation below the noise level keeps the task
                // non-trivial, so accuracy contrasts between policies and
                // methods stay visible.
                let mut gen = SyntheticTabular::new(classes, dim, seed);
                gen.separation = 0.5;
                let all = gen.generate(train_n + test_n).map_err(SplitError::from)?;
                let rows = |range: std::ops::Range<usize>| all.subset(&range.collect::<Vec<_>>());
                let train = rows(0..train_n).map_err(SplitError::from)?;
                let test = rows(train_n..train_n + test_n).map_err(SplitError::from)?;
                let shards = partition(&train, platforms, how, seed ^ 0xBEEF).map_err(SplitError::from)?;
                let arch = Architecture::Mlp(MlpConfig {
                    input_dim: dim,
                    hidden: vec![64, 32],
                    num_classes: classes,
                });
                Ok((arch, shards, test))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_and_model_parsing() {
        use Workload::{Tabular, Vision};
        assert_eq!(
            Workload::parse("vgg_c10"),
            Some(Vision(ModelKind::Vgg, DatasetKind::C10))
        );
        assert_eq!(
            Workload::parse("resnet_c100"),
            Some(Vision(ModelKind::ResNet, DatasetKind::C100))
        );
        assert_eq!(
            Workload::parse("tab_dir03"),
            Some(Tabular(Partition::Dirichlet { alpha: 0.3 }))
        );
        assert_eq!(Workload::parse("tab_iid"), Some(Tabular(Partition::Iid)));
        for unknown in ["vgg", "c10", "mnist", "lstm_c10", "mlp"] {
            assert_eq!(Workload::parse(unknown), None, "{unknown}");
        }
        assert_eq!(DatasetKind::C100.classes(), 100);
    }

    #[test]
    fn vision_workload_is_consistent() {
        let (arch, shards, test) = Workload::parse("vgg_c10").unwrap().build(3, 60, 20, 0).unwrap();
        assert_eq!(shards.len(), 3);
        assert_eq!(shards.iter().map(|s| s.len()).sum::<usize>(), 60);
        assert_eq!(test.len(), 20);
        assert_eq!(arch.num_classes(), 10);
        assert_eq!(arch.input_dims(), vec![3, 16, 16]);
    }

    #[test]
    fn full_arch_is_paper_scale() {
        assert!(ModelKind::Vgg.full_arch(10).param_count() > 10_000_000);
        assert!(ModelKind::ResNet.full_arch(10).param_count() > 10_000_000);
        // Lite arch parameter count dominates its cut activation size
        // (the relationship Fig. 4 depends on).
        let lite = ModelKind::Vgg.lite_arch(10);
        if let Architecture::Vgg(cfg) = &lite {
            assert!(lite.param_count() > 10 * cfg.cut_activation_numel());
        } else {
            panic!("expected vgg");
        }
    }

    #[test]
    fn tabular_workload_builds() {
        let (arch, shards, test) = Workload::parse("tab_iid").unwrap().build(4, 80, 20, 1).unwrap();
        assert_eq!(shards.len(), 4);
        assert_eq!(test.len(), 20);
        assert_eq!(arch.family(), "mlp");
    }
}
