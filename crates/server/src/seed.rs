//! Seeding the server's demo/benchmark schema: the k-variant `wide`
//! relation (Zipf-skewed over the variant kinds) plus a small `kinds`
//! dimension relation (`kind → label`) so clients can exercise indexed
//! natural joins (`… FROM wide JOIN kinds …`).

use flexrel_core::attrs;
use flexrel_core::dep::Fd;
use flexrel_core::error::Result;
use flexrel_core::relation::FlexRelation;
use flexrel_core::scheme::SchemeBuilder;
use flexrel_core::tuple::Tuple;
use flexrel_core::value::{Domain, Value};
use flexrel_storage::{Database, RelationDef};
use flexrel_workload::{generate_wide, wide_kind_tag, wide_relation, WideConfig};

/// The dimension relation joined against `wide`: one row per variant kind,
/// keyed by `kind` (an FD `kind → label`, so the determinant index on
/// `kind` is auto-created and joins can probe it).
pub fn kinds_relation(variants: usize) -> FlexRelation {
    let mut rel = FlexRelation::new(
        "kinds",
        SchemeBuilder::all_of(["kind", "label"])
            .build()
            .expect("valid kinds scheme"),
    );
    rel.set_domain(
        "kind",
        Domain::enumeration((0..variants).map(wide_kind_tag)),
    );
    rel.set_domain("label", Domain::Text);
    rel.add_dep(Fd::new(attrs!["kind"], attrs!["label"]));
    rel
}

/// Tuples per `transact` batch when seeding — the batch shape
/// `flexrel-e2e` seeds its durable database with.
const SEED_BATCH: usize = 1_000;

/// Creates and populates `wide` (`n` tuples over `variants` kinds with the
/// given Zipf `skew`) and `kinds` (one labelled row per kind) on `db`,
/// through the one write path: `wide` in 1 000-tuple transactions,
/// `kinds` in one.
pub fn seed_wide(db: &Database, n: usize, variants: usize, skew: f64) -> Result<()> {
    db.create_relation(RelationDef::from_relation(&wide_relation(variants)))?;
    let mut tuples = generate_wide(&WideConfig::new(n, variants).with_skew(skew)).into_iter();
    loop {
        let mut batch = tuples.by_ref().take(SEED_BATCH).peekable();
        if batch.peek().is_none() {
            break;
        }
        db.transact(&["wide"], |tx| {
            batch.try_for_each(|t| tx.insert("wide", t).map(drop))
        })?;
    }
    db.create_relation(RelationDef::from_relation(&kinds_relation(variants)))?;
    db.transact(&["kinds"], |tx| {
        (0..variants).try_for_each(|v| {
            let row = Tuple::new()
                .with("kind", Value::tag(wide_kind_tag(v)))
                .with("label", format!("variant {}", v));
            tx.insert("kinds", row).map(drop)
        })
    })
}
