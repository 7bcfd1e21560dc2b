//! The four workloads. Each is a closed loop — every caller waits for its
//! reply before sending the next statement — with op counts fixed by
//! `--seconds`, never by a clock, so counts repeat exactly for one seed.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::inputs::StagedData;
use crate::samples::Samples;

pub mod adhoc_fig8;
pub mod durable_dml;
pub mod served;

/// Stage timings of repeated set-ups. Set-up runs several times per run so
/// `setup_s` is a median, not one draw.
#[derive(Debug, Default)]
pub struct SetupTimes {
    total: Vec<Duration>,
    generate: Vec<Duration>,
    propagate: Vec<Duration>,
    assign: Vec<Duration>,
}

impl SetupTimes {
    /// Record one set-up: its whole wall time and the data stages inside.
    pub fn push(&mut self, total: Duration, data: &StagedData) {
        self.total.push(total);
        self.generate.push(data.generate);
        self.propagate.push(data.propagate);
        self.assign.push(data.assign);
    }

    /// Median whole set-up time, seconds.
    pub fn setup_s(&self) -> f64 {
        Samples::from_ms(&self.total).median() / 1e3
    }

    /// The offline-pipeline layers (the paper's Figure 7), as per-layer
    /// metrics.
    pub fn layer_metrics(&self, out: &mut BTreeMap<String, f64>) {
        out.insert(
            "datagen.generate_ms".into(),
            Samples::from_ms(&self.generate).median(),
        );
        out.insert(
            "core.propagate_ms".into(),
            Samples::from_ms(&self.propagate).median(),
        );
        out.insert(
            "prob.assign_ms".into(),
            Samples::from_ms(&self.assign).median(),
        );
    }

    /// The set-up samples, for the report.
    pub fn samples(&self) -> Samples {
        Samples::new(self.total.iter().map(Duration::as_secs_f64).collect())
    }
}

/// `failed / attempted`, `0.0` when nothing was attempted.
pub fn fail_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Whether every probability lies in `(0, 1]`, allowing the last-ulp
/// excess a sum of per-tuple probabilities can carry.
pub fn probability_ok(p: f64) -> bool {
    p > 0.0 && p <= 1.0 + 1e-9
}
