//! The per-pair reference metric shared by the invariance suites.

use gts::metric::{BatchMetric, Metric};
use gts::prelude::{Item, ItemMetric};

/// [`ItemMetric`]'s distances and work model behind the scalar
/// [`BatchMetric`] defaults, so the index builds no arena and resolves
/// every pair from the boxed `Item` payloads.
#[derive(Clone, Copy)]
pub struct PerPair(pub ItemMetric);

impl Metric<Item> for PerPair {
    fn distance(&self, a: &Item, b: &Item) -> f64 {
        self.0.distance(a, b)
    }
    fn work(&self, a: &Item, b: &Item) -> u64 {
        self.0.work(a, b)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}
impl BatchMetric<Item> for PerPair {}
