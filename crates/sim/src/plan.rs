//! The fault-plan document: [`FaultPlan`] on the [`codec`](crate::codec).
//! Its pretty bytes are what the checkpoint spec hash and the campaign
//! job digest hash. A member left out keeps [`FaultPlan::default`]'s
//! value, and every decoded plan must pass [`FaultPlan::validate`].

use hp_faults::FaultPlan;

crate::codec!(FaultPlan {
    seed = FaultPlan::default().seed,
    sensor_noise_sigma_celsius = FaultPlan::default().sensor_noise_sigma_celsius,
    sensor_stuck_rate = FaultPlan::default().sensor_stuck_rate,
    sensor_stuck_intervals = FaultPlan::default().sensor_stuck_intervals,
    sensor_dropout_rate = FaultPlan::default().sensor_dropout_rate,
    migration_failure_rate = FaultPlan::default().migration_failure_rate,
    migration_blackout_intervals = FaultPlan::default().migration_blackout_intervals,
    power_spike_rate = FaultPlan::default().power_spike_rate,
    power_spike_watts = FaultPlan::default().power_spike_watts,
    power_spike_intervals = FaultPlan::default().power_spike_intervals,
    force_active = FaultPlan::default().force_active,
} where FaultPlan::validate);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_document, pretty};

    fn read_plan(src: &str) -> Result<FaultPlan, String> {
        decode_document(src)
    }

    #[test]
    fn json_roundtrip() {
        let plan = FaultPlan {
            seed: 42,
            sensor_noise_sigma_celsius: 0.25,
            sensor_stuck_rate: 0.01,
            sensor_stuck_intervals: 30,
            sensor_dropout_rate: 0.05,
            migration_failure_rate: 0.1,
            migration_blackout_intervals: 20,
            power_spike_rate: 0.02,
            power_spike_watts: 4.0,
            power_spike_intervals: 15,
            force_active: false,
        };
        let json = pretty(&plan);
        let back = read_plan(&json).expect("roundtrip parses");
        assert_eq!(plan, back);
    }

    #[test]
    fn json_partial_object_keeps_defaults() {
        let plan =
            read_plan(r#"{"seed": 7, "sensor_dropout_rate": 0.5}"#).expect("partial plan parses");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.sensor_dropout_rate, 0.5);
        assert_eq!(
            plan.sensor_stuck_intervals,
            FaultPlan::default().sensor_stuck_intervals
        );
    }

    #[test]
    fn json_rejects_unknown_and_malformed() {
        assert!(read_plan("not json").is_err());
        let err = read_plan(r#"{"sensor_dropout": 0.5}"#).expect_err("unknown key");
        assert!(err.contains("unknown key `sensor_dropout`"), "{err}");
        assert!(read_plan(r#"{"seed": "high"}"#).is_err());
        assert!(read_plan(r#"{"force_active": 1}"#).is_err());
        let err = read_plan(r#"{"sensor_dropout_rate": 2.0}"#).expect_err("validated");
        assert!(err.contains("sensor_dropout_rate"), "{err}");
        assert!(read_plan(r#"{seed: 3}"#).is_err());
        assert!(read_plan(r#"[{"seed": 3}]"#).is_err());
    }

    #[test]
    fn json_empty_object_is_default() {
        let plan = read_plan("{}").expect("empty object parses");
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn json_rejects_a_trailing_comma() {
        assert!(read_plan(r#"{"seed": 1,}"#).is_err());
    }

    #[test]
    fn json_rejects_an_empty_member() {
        assert!(read_plan("{,}").is_err());
    }

    #[test]
    fn json_rejects_a_repeated_member() {
        let err = read_plan(r#"{"seed": 1, "seed": 2}"#).expect_err("repeated seed");
        assert!(err.contains("`seed` is repeated"), "{err}");
    }

    /// The bytes the checkpoint spec hash and the campaign job digest
    /// hash, as every earlier release wrote them.
    #[test]
    fn pretty_encoding_is_pinned() {
        let default = r#"{
  "seed": 0,
  "sensor_noise_sigma_celsius": 0,
  "sensor_stuck_rate": 0,
  "sensor_stuck_intervals": 50,
  "sensor_dropout_rate": 0,
  "migration_failure_rate": 0,
  "migration_blackout_intervals": 10,
  "power_spike_rate": 0,
  "power_spike_watts": 0,
  "power_spike_intervals": 10,
  "force_active": false
}
"#;
        assert_eq!(pretty(&FaultPlan::default()), default);
        let chaos = read_plan(r#"{"seed": 42, "sensor_dropout_rate": 0.3}"#).expect("CI's plan");
        let chaos_bytes = r#"{
  "seed": 42,
  "sensor_noise_sigma_celsius": 0,
  "sensor_stuck_rate": 0,
  "sensor_stuck_intervals": 50,
  "sensor_dropout_rate": 0.3,
  "migration_failure_rate": 0,
  "migration_blackout_intervals": 10,
  "power_spike_rate": 0,
  "power_spike_watts": 0,
  "power_spike_intervals": 10,
  "force_active": false
}
"#;
        assert_eq!(pretty(&chaos), chaos_bytes);
    }
}
