//! The run-report document (`hp-report-v1`, DESIGN.md §10): [`RunReport`]
//! on the [`codec`](crate::codec). Each block is one object, name →
//! value, decoded in name order as the report keeps its entries.

use hp_obs::{
    CounterEntry, GaugeEntry, HistogramEntry, HistogramSummary, MetaEntry, ReportEvent, RunReport,
    SCHEMA,
};

use crate::codec::{Entry, Named};

crate::codec! {
    #[schema = SCHEMA]
    RunReport { meta: Named, counters: Named, gauges: Named, histograms: Named, events }
}
crate::codec! { HistogramSummary { count, mean_us, p50_us, p95_us, max_us } }
crate::codec! { ReportEvent { time_seconds, kind, detail } }

/// Report entries as members of their block.
macro_rules! entry {
    ($($ty:ident { $value:ident: $v:ty }),+ $(,)?) => {$(
        impl Entry for $ty {
            type Value = $v;
            fn parts(&self) -> (&str, &$v) {
                (&self.name, &self.$value)
            }
            fn from_parts(name: String, $value: $v) -> Self {
                $ty { name, $value }
            }
        }
    )+};
}

entry! {
    CounterEntry { value: u64 },
    GaugeEntry { value: f64 },
    MetaEntry { value: String },
    HistogramEntry { summary: HistogramSummary },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_document, pretty};

    fn sample() -> RunReport {
        let mut r = RunReport::new();
        r.push_counter("engine.intervals", 600);
        r.push_counter("thermal.decay_cache_hits", 599);
        r.push_gauge("metrics.peak_celsius", 68.4375);
        r.push_histogram(
            "hook.schedule",
            HistogramSummary {
                count: 600,
                mean_us: 21.5,
                p50_us: 19.03,
                p95_us: 45.25,
                max_us: 113.0,
            },
        );
        r.push_meta("gemm_backend", "avx2");
        r.push_event(1.0, "dtm", "core 3 above threshold");
        r
    }

    fn read_report(src: &str) -> Result<RunReport, String> {
        decode_document(src)
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let original = sample();
        let text = pretty(&original);
        let parsed = read_report(&text).expect("well-formed document");
        assert_eq!(parsed, original);
    }

    #[test]
    fn empty_report_roundtrips() {
        let text = pretty(&RunReport::new());
        assert_eq!(
            text,
            "{\n  \"schema\": \"hp-report-v1\",\n  \"meta\": {},\n  \"counters\": {},\n  \
             \"gauges\": {},\n  \"histograms\": {},\n  \"events\": []\n}\n"
        );
        let parsed = read_report(&text).expect("well-formed document");
        assert!(parsed.is_empty());
    }

    #[test]
    fn nan_gauges_survive_as_null() {
        let mut r = RunReport::new();
        r.push_gauge("metrics.mean_response_seconds", f64::NAN);
        let text = pretty(&r);
        assert!(text.contains("\"metrics.mean_response_seconds\": null"));
        let parsed = read_report(&text).expect("well-formed document");
        assert!(parsed
            .gauge("metrics.mean_response_seconds")
            .is_some_and(f64::is_nan));
    }

    #[test]
    fn rejects_wrong_schema() {
        let text = pretty(&RunReport::new()).replace(SCHEMA, "hp-report-v9");
        assert!(read_report(&text).is_err());
        assert!(read_report("{}").is_err());
        assert!(read_report("not json").is_err());
    }

    #[test]
    fn rejects_malformed_entries() {
        let valid = pretty(&RunReport::new());
        for (block, bad) in [
            ("\"counters\": {}", r#""counters": {"c": -1}"#),
            ("\"histograms\": {}", r#""histograms": {"h": {"count": 1}}"#),
            ("\"meta\": {}", r#""meta": {"k": 1}"#),
            (
                "\"events\": []",
                r#""events": [{"time_seconds": 1, "kind": "dtm", "detail": "x", "extra": 0}]"#,
            ),
        ] {
            let text = valid.replace(block, bad);
            assert_ne!(text, valid);
            assert!(read_report(&text).is_err(), "{bad}");
        }
    }

    #[test]
    fn rejects_counters_that_are_not_an_object() {
        let text = pretty(&sample()).replace(
            "\"counters\": {\n    \"engine.intervals\": 600,\n    \"thermal.decay_cache_hits\": 599\n  }",
            "\"counters\": [1, 2]",
        );
        assert!(text.contains("[1, 2]"));
        let err = read_report(&text).expect_err("an array of counters");
        assert!(err.contains("`counters` is not an object"), "{err}");
    }

    #[test]
    fn rejects_an_event_without_a_kind() {
        let text = pretty(&sample()).replace("\"kind\": \"dtm\",", "");
        let err = read_report(&text).expect_err("no kind");
        assert!(err.contains("`kind` is missing"), "{err}");
    }

    #[test]
    fn serialized_counters_are_bit_identical_across_builds() {
        let a = pretty(&sample());
        let b = pretty(&sample());
        assert_eq!(a, b);
    }
}
