//! The metric registry: one sink components publish counters and
//! histograms into, replacing hand-rolled per-component flattening.
//!
//! Components keep owning their counter structs (they are part of the
//! simulation state); what the registry replaces is the *flattening*: a
//! group of `u64` counters is declared once with [`counters!`](crate::counters),
//! which writes the struct and its [`CounterGroup`] impl from one field
//! list, and any harness folds it in with [`Registry::record_group`]
//! under a prefix.
//! Histograms are the fixed-memory log-bucketed
//! [`LatencyHistogram`], so registries merge cheaply across parallel
//! campaign workers.

use std::collections::BTreeMap;
use std::fmt;

use pmnet_sim::stats::{CounterSet, LatencyHistogram};

/// A named bundle of counters a component can publish wholesale.
///
/// Implementations call `f(field_name, value)` once per counter; the
/// registry prefixes each name with the component's namespace, so the
/// flattened names (`"device.forwarded"`, ...) are defined next to the
/// fields instead of in a distant harness.
pub trait CounterGroup {
    /// Visits every `(name, value)` pair of the group.
    fn visit_counters(&self, f: &mut dyn FnMut(&'static str, u64));
}

/// Declares a counter group: a struct of `pub u64` fields, each published
/// under its own name, and its [`CounterGroup`] impl — one field list, so
/// a counter's name is written once. Doc comments on the struct and its
/// fields are kept: `counters! { /// doc  pub struct Name { /// doc
/// field, .. } }`.
#[macro_export]
macro_rules! counters {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $( $(#[$fmeta:meta])* $field:ident ),* $(,)?
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $( $(#[$fmeta])* pub $field: u64, )*
        }

        impl $crate::registry::CounterGroup for $name {
            fn visit_counters(&self, f: &mut dyn FnMut(&'static str, u64)) {
                $( f(stringify!($field), self.$field); )*
            }
        }
    };
}

/// A registry of named counters and latency histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: CounterSet,
    histograms: BTreeMap<String, LatencyHistogram>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `n` to the named counter.
    pub fn add(&mut self, name: &str, n: u64) {
        self.counters.add(name, n);
    }

    /// Folds a whole [`CounterGroup`] in under `prefix` (names become
    /// `"{prefix}.{field}"`).
    pub fn record_group(&mut self, prefix: &str, group: &dyn CounterGroup) {
        group.visit_counters(&mut |name, v| {
            self.counters.add(&format!("{prefix}.{name}"), v);
        });
    }

    /// Merges a whole histogram into the named slot (bucket-wise).
    pub fn record_histogram(&mut self, name: &str, h: &LatencyHistogram) {
        if let Some(slot) = self.histograms.get_mut(name) {
            slot.merge(h);
        } else {
            self.histograms.insert(name.to_string(), h.clone());
        }
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms.get(name)
    }

    /// The flattened counters.
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// Consumes the registry, returning the flattened counters.
    pub fn into_counter_set(self) -> CounterSet {
        self.counters
    }

    /// Merges another registry: counters add, histograms merge bucket-
    /// wise. Associative and commutative, for parallel campaign workers.
    pub fn merge(&mut self, other: &Registry) {
        self.counters.merge(&other.counters);
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }
}

impl fmt::Display for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmnet_sim::Dur;

    crate::counters! {
        struct Demo { hits, misses }
    }

    #[test]
    fn groups_flatten_under_prefix() {
        let mut r = Registry::new();
        r.record_group("cache", &Demo { hits: 3, misses: 1 });
        r.record_group("cache", &Demo { hits: 2, misses: 0 });
        assert_eq!(r.counters().get("cache.hits"), 5);
        assert_eq!(r.counters().get("cache.misses"), 1);
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = Registry::new();
        a.add("x", 1);
        let sample = |ns| {
            let mut h = LatencyHistogram::new();
            h.record(Dur::nanos(ns));
            h
        };
        a.record_histogram("lat", &sample(100));
        let mut b = Registry::new();
        b.add("x", 2);
        b.record_histogram("lat", &sample(300));
        a.merge(&b);
        assert_eq!(a.counters().get("x"), 3);
        assert_eq!(a.histogram("lat").unwrap().len(), 2);
    }
}
