//! A k-variant "wide" workload for the partition-pruning experiments.
//!
//! The employee entity of §1 has only three variants; to measure how
//! shape-partitioned storage scales with the number of coexisting shapes,
//! this generator builds a relation with a configurable number `k` of
//! disjoint variants: `id` and `kind` are unconditioned, and the value of
//! `kind` determines (via an EAD) which single variant attribute
//! `v0 … v{k-1}` the tuple carries — so a populated instance has exactly
//! `k` tuple shapes, one heap partition each.

use flexrel_core::attr::{Attr, AttrSet};
use flexrel_core::attrs;
use flexrel_core::dep::{DependencySet, Ead, EadVariant, Fd};
use flexrel_core::relation::FlexRelation;
use flexrel_core::scheme::{FlexScheme, SchemeBuilder};
use flexrel_core::tuple::Tuple;
use flexrel_core::value::{Domain, Value};

/// Configuration of the wide-variant generator.
#[derive(Clone, Debug)]
pub struct WideConfig {
    /// Number of tuples to generate.
    pub n: usize,
    /// Number of variants (distinct tuple shapes), at least 1.
    pub variants: usize,
    /// Key-skew exponent for the `kind` distribution: `0.0` spreads tuples
    /// round-robin (uniform); larger values weight variant `i` by
    /// `1 / (i+1)^skew` (Zipf-like), concentrating tuples — and hence one
    /// partition and one `kind`-index chain — on the low variants.  Lets
    /// the access-path experiments control determinant selectivity.
    pub skew: f64,
}

impl WideConfig {
    /// `n` tuples spread round-robin over `variants` shapes.
    pub fn new(n: usize, variants: usize) -> Self {
        assert!(variants >= 1, "at least one variant is required");
        WideConfig {
            n,
            variants,
            skew: 0.0,
        }
    }

    /// Sets the key-skew exponent (builder style).
    pub fn with_skew(mut self, skew: f64) -> Self {
        assert!(skew >= 0.0, "skew must be non-negative");
        self.skew = skew;
        self
    }

    /// The number of tuples assigned to each variant: uniform (round-robin
    /// remainders go to the low variants) for `skew = 0`, Zipf-weighted
    /// otherwise.  Deterministic, sums to `n`.
    pub fn variant_counts(&self) -> Vec<usize> {
        let weights: Vec<f64> = (0..self.variants)
            .map(|i| 1.0 / ((i + 1) as f64).powf(self.skew))
            .collect();
        let total: f64 = weights.iter().sum();
        let quotas: Vec<f64> = weights.iter().map(|w| self.n as f64 * w / total).collect();
        let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
        // Largest-remainder (Hamilton) apportionment of the rounding
        // remainder: the variants that lost the most to flooring get the
        // extra tuples, ties broken toward the low (heavier) variants, so
        // the realized histogram tracks the Zipf weights as closely as
        // integer counts allow.
        let assigned: usize = counts.iter().sum();
        let mut by_fraction: Vec<usize> = (0..self.variants).collect();
        by_fraction.sort_by(|a, b| {
            (quotas[*b] - counts[*b] as f64)
                .total_cmp(&(quotas[*a] - counts[*a] as f64))
                .then(a.cmp(b))
        });
        for i in by_fraction.into_iter().take(self.n - assigned) {
            counts[i] += 1;
        }
        debug_assert_eq!(counts.iter().sum::<usize>(), self.n);
        counts
    }
}

/// The tag stored in `kind` for variant `i`.
pub fn wide_kind_tag(i: usize) -> String {
    format!("k{}", i)
}

/// The variant attribute prescribed for variant `i`.
pub fn wide_variant_attr(i: usize) -> String {
    format!("v{}", i)
}

/// The scheme of the wide relation: `<3, 3, {id, kind, <1,1,{v0 … v{k-1}}>}>`.
pub fn wide_scheme(variants: usize) -> FlexScheme {
    let group = FlexScheme::disjoint_union((0..variants).map(|i| Attr::new(wide_variant_attr(i))))
        .expect("valid group");
    SchemeBuilder::all_of(["id", "kind"])
        .nested(group)
        .build()
        .expect("valid wide scheme")
}

/// The dependencies of the wide relation: the EAD `kind --exp.attr--> {v0 …}`
/// with one variant per kind tag, plus the key FD `id --func--> kind`.
pub fn wide_deps(variants: usize) -> DependencySet {
    let rhs: AttrSet = AttrSet::from_names((0..variants).map(wide_variant_attr));
    let ead_variants: Vec<EadVariant> = (0..variants)
        .map(|i| {
            EadVariant::new(
                vec![Tuple::new().with("kind", Value::tag(wide_kind_tag(i)))],
                AttrSet::from_names([wide_variant_attr(i)]),
            )
        })
        .collect();
    let ead = Ead::new(attrs!["kind"], rhs, ead_variants).expect("valid wide EAD");
    let mut deps = DependencySet::new();
    deps.add(ead);
    deps.add(Fd::new(attrs!["id"], attrs!["kind"]));
    deps
}

/// The empty wide relation with scheme, domains and dependencies attached.
pub fn wide_relation(variants: usize) -> FlexRelation {
    let mut rel = FlexRelation::new("wide", wide_scheme(variants));
    rel.set_domain("id", Domain::Int);
    rel.set_domain(
        "kind",
        Domain::enumeration((0..variants).map(wide_kind_tag)),
    );
    for dep in wide_deps(variants).iter() {
        rel.add_dep(dep.clone());
    }
    rel
}

/// Generates `cfg.n` valid tuples over the variants: round-robin when
/// `cfg.skew` is zero (the historical behaviour), otherwise Zipf-weighted by
/// [`WideConfig::variant_counts`] with the variants interleaved so every
/// prefix of the output mixes shapes.
pub fn generate_wide(cfg: &WideConfig) -> Vec<Tuple> {
    // Interned attributes and kind tags are built once per variant, not
    // once per tuple: cloning an attribute copies two words, a tag bumps a
    // refcount.
    let (id, kind) = (Attr::new("id"), Attr::new("kind"));
    let variants: Vec<(Value, Attr)> = (0..cfg.variants)
        .map(|v| {
            (
                Value::tag(wide_kind_tag(v)),
                Attr::new(wide_variant_attr(v)),
            )
        })
        .collect();
    let tuple_for = |i: usize, v: usize| {
        let (tag, attr) = &variants[v];
        Tuple::new()
            .with(id.clone(), i as i64)
            .with(kind.clone(), tag.clone())
            .with(attr.clone(), (i * 7 % 1000) as i64)
    };
    if cfg.skew == 0.0 {
        return (0..cfg.n).map(|i| tuple_for(i, i % cfg.variants)).collect();
    }
    let mut remaining = cfg.variant_counts();
    let mut out = Vec::with_capacity(cfg.n);
    let mut v = 0usize;
    for i in 0..cfg.n {
        // Round-robin over the variants that still have budget.
        let mut probes = 0;
        while remaining[v % cfg.variants] == 0 && probes < cfg.variants {
            v += 1;
            probes += 1;
        }
        let chosen = v % cfg.variants;
        remaining[chosen] -= 1;
        v += 1;
        out.push(tuple_for(i, chosen));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrel_core::relation::CheckLevel;

    #[test]
    fn generated_tuples_satisfy_the_relation() {
        let mut rel = wide_relation(8);
        for t in generate_wide(&WideConfig::new(64, 8)) {
            rel.insert_checked(t, CheckLevel::Full).unwrap();
        }
        assert_eq!(rel.len(), 64);
        assert!(rel.validate_instance().is_ok());
        assert_eq!(rel.shape_histogram().len(), 8, "one shape per variant");
    }

    #[test]
    fn scheme_has_one_disjunct_per_variant() {
        let fs = wide_scheme(5);
        assert_eq!(fs.dnf_len(), 5);
        assert!(fs.admits(&attrs!["id", "kind", "v3"]));
        assert!(!fs.admits(&attrs!["id", "kind", "v0", "v1"]));
    }

    #[test]
    fn skewed_generation_is_valid_and_concentrated() {
        let cfg = WideConfig::new(200, 4).with_skew(1.5);
        let counts = cfg.variant_counts();
        assert_eq!(counts.iter().sum::<usize>(), 200);
        assert!(
            counts[0] > counts[3] * 2,
            "skew concentrates the low variants: {:?}",
            counts
        );
        let tuples = generate_wide(&cfg);
        assert_eq!(tuples.len(), 200);
        let mut rel = wide_relation(4);
        for t in &tuples {
            rel.insert_checked(t.clone(), CheckLevel::Full).unwrap();
        }
        // Ids stay unique and the per-kind histogram matches the plan.
        for (i, c) in counts.iter().enumerate() {
            let kind = Value::tag(wide_kind_tag(i));
            assert_eq!(
                tuples
                    .iter()
                    .filter(|t| t.get_name("kind") == Some(&kind))
                    .count(),
                *c
            );
        }
        // Zero skew keeps the historical round-robin layout.
        let uniform = WideConfig::new(12, 4);
        assert_eq!(uniform.variant_counts(), vec![3, 3, 3, 3]);
        assert_eq!(
            generate_wide(&uniform)[5].get_name("kind"),
            Some(&Value::tag("k1"))
        );
    }

    #[test]
    fn variant_counts_sum_to_n_with_largest_remainders_first() {
        // Every configuration allocates exactly n tuples.
        for n in [0, 1, 7, 199, 200, 1000, 9999] {
            for k in [1, 2, 4, 7, 16] {
                for skew in [0.0, 0.5, 1.0, 1.5, 3.0] {
                    let counts = WideConfig::new(n, k).with_skew(skew).variant_counts();
                    assert_eq!(
                        counts.iter().sum::<usize>(),
                        n,
                        "n={} k={} skew={}",
                        n,
                        k,
                        skew
                    );
                }
            }
        }
        // The rounding remainder goes to the largest fractional parts, not
        // round-robin from variant 0: with n=10, k=4, skew=1 the quotas are
        // 4.8, 2.4, 1.6, 1.2 — the floors leave two extra tuples, which go
        // to v0 (fraction .8) and v2 (fraction .6), not to v0 and v1.
        let counts = WideConfig::new(10, 4).with_skew(1.0).variant_counts();
        assert_eq!(counts, vec![5, 2, 2, 1]);
        // Counts stay monotone in the weights (no inversion from the
        // remainder pass).
        let counts = WideConfig::new(101, 5).with_skew(2.0).variant_counts();
        for w in counts.windows(2) {
            assert!(w[0] >= w[1], "{:?}", counts);
        }
    }

    #[test]
    fn cross_variant_tuples_violate_the_ead() {
        let ead = wide_deps(4).eads().next().unwrap().clone();
        let bad = Tuple::new()
            .with("id", 1)
            .with("kind", Value::tag("k0"))
            .with("v1", 9);
        assert!(ead.check_tuple(&bad).is_err());
    }
}
