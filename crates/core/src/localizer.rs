//! Fault localization: *where* to inject.
//!
//! AVFI campaigns first select fault locations — "e.g., choosing specific
//! neurons and layers in the IL-CNN" — then apply a fault model there.
//! This module provides the selection strategies: parameter-name
//! selectors for weight faults, layer/unit sampling for neuron faults, and
//! bit-position sampling for hardware faults.

use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Selects which named parameters of the network are fault-eligible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamSelector {
    /// Every parameter.
    All,
    /// Parameters whose qualified name starts with a prefix, e.g.
    /// `"trunk.conv0"` or `"head1."`.
    Prefix(String),
    /// Only weight matrices (excludes biases).
    WeightsOnly,
}

impl ParamSelector {
    /// Whether a qualified parameter name is selected.
    pub fn matches(&self, name: &str) -> bool {
        match self {
            ParamSelector::All => true,
            ParamSelector::Prefix(p) => name.starts_with(p.as_str()),
            ParamSelector::WeightsOnly => name.ends_with(".weight"),
        }
    }
}

/// A fully resolved neuron fault site in the trunk.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NeuronSite {
    /// Trunk layer index.
    pub layer: usize,
    /// Flat unit index within that layer's output.
    pub unit: usize,
}

/// Sizes of the trunk layer outputs of the default IL architecture, used
/// to sample valid neuron sites. Index = trunk layer.
fn trunk_output_sizes() -> Vec<usize> {
    // conv(8@12x16), relu, conv(16@6x8), relu, flatten, dense 64, relu.
    vec![
        8 * 12 * 16,
        8 * 12 * 16,
        16 * 6 * 8,
        16 * 6 * 8,
        16 * 6 * 8,
        64,
        64,
    ]
}

/// Samples a random neuron site in the trunk, uniformly over layers then
/// units (matching the paper's per-layer selection step).
pub fn sample_neuron_site(rng: &mut StdRng) -> NeuronSite {
    let sizes = trunk_output_sizes();
    let layer = rng.random_range(0..sizes.len());
    let unit = rng.random_range(0..sizes[layer]);
    NeuronSite { layer, unit }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfi_agent::IlNetwork;
    use avfi_sim::rng::stream_rng;

    #[test]
    fn selector_semantics() {
        assert!(ParamSelector::All.matches("trunk.conv0.weight"));
        assert!(ParamSelector::Prefix("trunk.".into()).matches("trunk.dense5.bias"));
        assert!(!ParamSelector::Prefix("trunk.".into()).matches("head0.dense0.weight"));
        assert!(ParamSelector::WeightsOnly.matches("head2.dense0.weight"));
        assert!(!ParamSelector::WeightsOnly.matches("head2.dense0.bias"));
    }

    #[test]
    fn neuron_sites_are_valid_overrides() {
        // Installing a sampled site must actually affect the network (the
        // override indices must be in range of the real layer outputs).
        use avfi_nn::Tensor;
        use avfi_sim::map::route::Command;
        let mut rng = stream_rng(1, 0);
        for _ in 0..10 {
            let site = sample_neuron_site(&mut rng);
            let mut net = IlNetwork::new(2);
            let img = Tensor::zeros(vec![1, 24, 32]);
            let clean = net.forward(&img, 0.1, Command::Follow, false);
            net.add_trunk_override(site.layer, site.unit, 99.0);
            let faulty = net.forward(&img, 0.1, Command::Follow, false);
            assert_ne!(clean.data(), faulty.data(), "site {site:?} had no effect");
            net.clear_overrides();
        }
    }
}
