//! Telemetry sinks: how a caller opts a flow run into (or out of)
//! instrumentation, mirroring the `FlowObserver` pattern.

use crate::registry::Registry;

/// Where a run's telemetry goes. Engines ask the sink for a registry at
/// the start of a run; `None` means "do not install anything" — every
/// instrumentation site then reduces to one relaxed atomic load.
pub trait TelemetrySink: Sync {
    /// The registry to record into, or `None` to disable telemetry.
    fn registry(&self) -> Option<&Registry> {
        None
    }
}

/// Records nothing; what `run` uses internally.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {}

/// Collects spans and metrics into an owned [`Registry`] for post-run
/// inspection or run-record serialization.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    registry: Registry,
}

impl RecordingSink {
    /// A sink with a fresh registry.
    pub fn new() -> RecordingSink {
        RecordingSink::default()
    }

    /// The registry this sink records into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

impl TelemetrySink for RecordingSink {
    fn registry(&self) -> Option<&Registry> {
        Some(&self.registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_has_no_registry() {
        assert!(TelemetrySink::registry(&NullSink).is_none());
    }

    #[test]
    fn recording_sink_exposes_its_registry() {
        let sink = RecordingSink::new();
        {
            let _scope = TelemetrySink::registry(&sink).unwrap().install("t");
            crate::count("sink.test", 1);
        }
        assert_eq!(sink.registry().snapshot().metrics.counter("sink.test"), 1);
    }
}
