//! Model-based property tests for the compact [`Tuple`].
//!
//! The model is a plain `BTreeMap<String, Value>` from attribute names to
//! values — the labelled tuple as a partial function from labels to values.
//! Random programs of the tuple operations (`with`, `insert`, `remove`,
//! `project`, `merged_with`, `rename`, `without_nulls`, `null_padded`) run
//! on a tuple and on its model side by side; after every step the tuple's
//! iteration order, lookups, shape and rendering must be the model's, and
//! equality, ordering and hashing must agree with the model's across pairs
//! of tuples.  The name pool is wide enough that shapes spill the
//! attribute bitset past one 64-bit word.
//!
//! A second program runs at arities 0–6, across the three pairs a tuple
//! stores in place, in both directions: a tuple grown past them and shrunk
//! back must equal, order and hash like one built in place, and a long
//! (shared) string value must be neither leaked nor dropped twice.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use proptest::prelude::*;

use flexrel_core::attr::{Attr, AttrSet};
use flexrel_core::tuple::Tuple;
use flexrel_core::value::{Text, Value};

type Model = BTreeMap<String, Value>;

/// 120 names, interned up front in pool order so that the `wide-*` tail
/// gets ids past 63.
fn name_pool() -> Vec<String> {
    let mut pool: Vec<String> = (0..40).map(|i| format!("p{:02}", i)).collect();
    pool.extend((0..80).map(|i| format!("wide-{:03}", i)));
    for n in &pool {
        Attr::new(n);
    }
    pool
}

fn split_mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A small value domain, so that independently built tuples sometimes
/// compare equal; nulls feed `without_nulls`.
fn arb_value(s: &mut u64) -> Value {
    match split_mix(s) % 5 {
        0 => Value::Int((split_mix(s) % 3) as i64),
        1 => Value::Float((split_mix(s) % 3) as f64 / 2.0),
        2 => Value::str(format!("s{}", split_mix(s) % 2)),
        3 => Value::tag("t"),
        _ => Value::Null,
    }
}

fn pick<'a>(s: &mut u64, pool: &'a [String]) -> &'a str {
    &pool[(split_mix(s) as usize) % pool.len()]
}

/// A random subset of the pool, as a set and as names.
fn arb_subset(s: &mut u64, pool: &[String]) -> (AttrSet, BTreeSet<String>) {
    let names: BTreeSet<String> = pool
        .iter()
        .filter(|_| split_mix(s).is_multiple_of(2))
        .cloned()
        .collect();
    (AttrSet::from_names(&names), names)
}

fn render(m: &Model) -> String {
    let body: Vec<String> = m.iter().map(|(a, v)| format!("{}: {}", a, v)).collect();
    format!("<{}>", body.join(", "))
}

fn hash_of(t: &Tuple) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// Everything observable about one tuple agrees with its model.
fn check(t: &Tuple, m: &Model, pool: &[String]) -> Result<(), TestCaseError> {
    let pairs: Vec<(String, Value)> = t
        .iter()
        .map(|(a, v)| (a.name().to_string(), v.clone()))
        .collect();
    let expect: Vec<(String, Value)> = m.iter().map(|(a, v)| (a.clone(), v.clone())).collect();
    prop_assert_eq!(pairs, expect, "iteration order");
    prop_assert_eq!(t.arity(), m.len());
    prop_assert_eq!(t.is_empty(), m.is_empty());
    prop_assert_eq!(t.shape(), &AttrSet::from_names(m.keys()));
    for name in pool {
        prop_assert_eq!(t.get_name(name), m.get(name), "get_name({})", name);
        prop_assert_eq!(t.get(&Attr::new(name)), m.get(name), "get({})", name);
        prop_assert_eq!(t.has_name(name), m.contains_key(name));
    }
    prop_assert_eq!(t.to_string(), render(m));
    // The same mapping built from its pairs in reverse order is the same
    // tuple, and hashes alike.
    let rebuilt = Tuple::from_pairs(m.iter().rev().map(|(a, v)| (a.as_str(), v.clone())));
    prop_assert_eq!(&rebuilt, t);
    prop_assert_eq!(hash_of(&rebuilt), hash_of(t));
    Ok(())
}

/// Equality, ordering and hashing of two tuples follow their models.
fn check_pair(t: &Tuple, m: &Model, u: &Tuple, n: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(t == u, m == n);
    prop_assert_eq!(t.cmp(u), m.cmp(n));
    prop_assert_eq!(t.partial_cmp(u), m.partial_cmp(n));
    if t == u {
        prop_assert_eq!(hash_of(t), hash_of(u));
    }
    Ok(())
}

/// One random step on tuple `t` (model `m`); `u`/`n` is the second operand
/// of `merged_with`.
fn step(
    s: &mut u64,
    pool: &[String],
    t: &mut Tuple,
    m: &mut Model,
    u: &Tuple,
    n: &Model,
) -> Result<(), TestCaseError> {
    match split_mix(s) % 10 {
        0 => {
            let (a, v) = (pick(s, pool), arb_value(s));
            t.insert(a, v.clone());
            m.insert(a.to_string(), v);
        }
        1 => {
            let (a, v) = (pick(s, pool), arb_value(s));
            *t = std::mem::take(t).with(a, v.clone());
            m.insert(a.to_string(), v);
        }
        2 => {
            // Fill: many inserts at once, so shapes pass 64 attributes.
            let from = (split_mix(s) as usize) % pool.len();
            let len = (split_mix(s) as usize) % 100;
            for a in pool.iter().cycle().skip(from).take(len) {
                let v = arb_value(s);
                t.insert(a.as_str(), v.clone());
                m.insert(a.clone(), v);
            }
        }
        3 => {
            let a = pick(s, pool);
            prop_assert_eq!(t.remove(&Attr::new(a)), m.remove(a), "remove({})", a);
        }
        4 => {
            let (x, names) = arb_subset(s, pool);
            *t = t.project(&x);
            m.retain(|a, _| names.contains(a));
        }
        5 => {
            *t = t.merged_with(u);
            m.extend(n.iter().map(|(a, v)| (a.clone(), v.clone())));
        }
        6 => {
            let (from, to) = (pick(s, pool), pick(s, pool));
            *t = t.rename(&Attr::new(from), &Attr::new(to));
            if let Some(v) = m.remove(from) {
                m.insert(to.to_string(), v);
            }
        }
        7 => {
            *t = t.without_nulls();
            m.retain(|_, v| !v.is_null());
        }
        8 => {
            let (universe, names) = arb_subset(s, pool);
            *t = t.null_padded(&universe);
            for a in names {
                m.entry(a).or_insert(Value::Null);
            }
        }
        _ => {
            // A tuple rebuilt from scratch through `FromIterator`.
            let from: Vec<(Attr, Value)> =
                m.iter().map(|(a, v)| (Attr::new(a), v.clone())).collect();
            *t = from.into_iter().collect();
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random operation programs keep the tuple and its model in step,
    /// and pairs of tuples compare, order and hash like their models.
    #[test]
    fn tuple_operations_match_the_map_model(seed in 0u64..1_000_000) {
        let pool = name_pool();
        let mut s = seed;
        let (mut t, mut m) = (Tuple::new(), Model::new());
        let (mut u, mut n) = (Tuple::new(), Model::new());
        for _ in 0..48 {
            // Mostly evolve `t`; sometimes the merge operand `u`.
            if split_mix(&mut s).is_multiple_of(4) {
                let (u0, n0) = (t.clone(), m.clone());
                step(&mut s, &pool, &mut u, &mut n, &u0, &n0)?;
                check(&u, &n, &pool)?;
            } else {
                step(&mut s, &pool, &mut t, &mut m, &u, &n)?;
                check(&t, &m, &pool)?;
            }
            check_pair(&t, &m, &u, &n)?;
            check_pair(&t, &m, &t.clone(), &m)?;
        }
    }
}

/// Six names, so a tuple's arity ranges over 0–6.
fn small_pool() -> Vec<String> {
    (0..6).map(|i| format!("s{}", i)).collect()
}

/// A string too long to store inline: its values share one `Arc`.
const LONG: &str = "a string too long to store inline";

/// Like [`arb_value`], with short inline strings and the long shared one.
fn arb_small_value(s: &mut u64, long: &Value) -> Value {
    match split_mix(s) % 5 {
        0 => Value::Int((split_mix(s) % 3) as i64),
        1 => Value::str(format!("s{}", split_mix(s) % 2)),
        2 => Value::tag("t"),
        3 => long.clone(),
        _ => Value::Null,
    }
}

/// The same mapping as `t`, built by growing past the inline capacity
/// (four filler attributes outside the pool) and removing the fillers.
fn grown_and_shrunk(t: &Tuple) -> Tuple {
    let fillers: Vec<Attr> = (0..4).map(|i| Attr::new(format!("filler-{}", i))).collect();
    let mut spilled = Tuple::new();
    for a in &fillers {
        spilled.insert(a.clone(), 0);
    }
    for (a, v) in t.iter() {
        spilled.insert(a.clone(), v.clone());
    }
    for a in &fillers {
        spilled.remove(a);
    }
    spilled
}

/// How many of the tuples' and models' values are the long string.
fn long_values<'a>(tuples: &[&Tuple], models: impl IntoIterator<Item = &'a Model>) -> usize {
    let is_long = |v: &Value| v.as_str() == Some(LONG);
    let in_tuples: usize = tuples
        .iter()
        .map(|t| t.iter().filter(|(_, v)| is_long(v)).count())
        .sum();
    let in_models: usize = models
        .into_iter()
        .map(|m| m.values().filter(|v| is_long(v)).count())
        .sum();
    in_tuples + in_models
}

/// One random step at small arity; `u`/`n` is the operand of
/// `merged_with`.
fn small_step(
    s: &mut u64,
    pool: &[String],
    long: &Value,
    t: &mut Tuple,
    m: &mut Model,
    u: &Tuple,
    n: &Model,
) -> Result<(), TestCaseError> {
    match split_mix(s) % 9 {
        0 => {
            let (a, v) = (pick(s, pool), arb_small_value(s, long));
            t.insert(a, v.clone());
            m.insert(a.to_string(), v);
        }
        1 => {
            let (a, v) = (pick(s, pool), arb_small_value(s, long));
            *t = std::mem::take(t).with(a, v.clone());
            m.insert(a.to_string(), v);
        }
        2 => {
            let a = pick(s, pool);
            prop_assert_eq!(t.remove(&Attr::new(a)), m.remove(a), "remove({})", a);
        }
        3 => {
            *t = t.merged_with(u);
            m.extend(n.iter().map(|(a, v)| (a.clone(), v.clone())));
        }
        4 => {
            let (x, names) = arb_subset(s, pool);
            *t = t.project(&x);
            m.retain(|a, _| names.contains(a));
        }
        5 => {
            let (from, to) = (pick(s, pool), pick(s, pool));
            *t = t.rename(&Attr::new(from), &Attr::new(to));
            if let Some(v) = m.remove(from) {
                m.insert(to.to_string(), v);
            }
        }
        6 => {
            *t = t.without_nulls();
            m.retain(|_, v| !v.is_null());
        }
        7 => {
            let (universe, names) = arb_subset(s, pool);
            *t = t.null_padded(&universe);
            for a in names {
                m.entry(a).or_insert(Value::Null);
            }
        }
        _ => {
            let copy = t.clone();
            *t = copy;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random programs at arities 0–6 keep the tuple and its model in
    /// step; a tuple grown past the inline capacity and shrunk back
    /// equals, orders and hashes like the one built in place; and the
    /// long string's reference count always equals its live copies, so
    /// no step leaks or double-drops a value.
    #[test]
    fn small_tuples_cross_the_inline_capacity_both_ways(seed in 0u64..1_000_000) {
        let pool = small_pool();
        let shared: Arc<str> = Arc::from(LONG);
        let long = Value::Str(Text::from(shared.clone()));
        // `shared` and `long` hold the two references outside any tuple.
        prop_assert_eq!(Arc::strong_count(&shared), 2);
        let mut s = seed;
        let (mut t, mut m) = (Tuple::new(), Model::new());
        let (mut u, mut n) = (Tuple::new(), Model::new());
        for _ in 0..64 {
            if split_mix(&mut s).is_multiple_of(4) {
                let (u0, n0) = (t.clone(), m.clone());
                small_step(&mut s, &pool, &long, &mut u, &mut n, &u0, &n0)?;
            } else {
                small_step(&mut s, &pool, &long, &mut t, &mut m, &u, &n)?;
            }
            prop_assert!(t.arity() <= 6 && u.arity() <= 6);
            check(&t, &m, &pool)?;
            check(&u, &n, &pool)?;
            check_pair(&t, &m, &u, &n)?;
            let spilled = grown_and_shrunk(&t);
            check(&spilled, &m, &pool)?;
            check_pair(&spilled, &m, &t, &m)?;
            check_pair(&spilled, &m, &u, &n)?;
            prop_assert_eq!(hash_of(&spilled), hash_of(&t));
            drop(spilled);
            prop_assert_eq!(
                Arc::strong_count(&shared),
                2 + long_values(&[&t, &u], [&m, &n]),
                "references to the long string"
            );
        }
        drop((t, m, u, n));
        prop_assert_eq!(Arc::strong_count(&shared), 2);
    }
}

/// The generator does reach spilled shapes: a filled tuple past 64
/// attributes behaves like its model too.
#[test]
fn spilled_shapes_match_the_model() {
    let pool = name_pool();
    let mut t = Tuple::new();
    let mut m = Model::new();
    for (i, a) in pool.iter().enumerate().rev() {
        t.insert(a.as_str(), i as i64);
        m.insert(a.clone(), Value::Int(i as i64));
    }
    assert!(t.arity() > 64);
    check(&t, &m, &pool).unwrap();
    let x = AttrSet::from_names(pool.iter().skip(60));
    let projected = t.project(&x);
    m.retain(|a, _| x.contains_name(a));
    check(&projected, &m, &pool).unwrap();
}
