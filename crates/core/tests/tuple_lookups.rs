//! Tuple lookups against a map model.
//!
//! A tuple finds a pair by scanning for the attribute's identity
//! (`get`, `has`, `remove`) or for its name (`get_name`, `has_name`), while
//! `insert` binary-searches the name order.  Random insert/remove programs
//! run on a tuple and on a `BTreeMap<String, Value>` side by side, and after
//! every step each lookup of every pool name must answer what the map
//! answers.  The pool holds names that are prefixes of each other, names of
//! equal length, and names interned after 64 others, so that shapes spill
//! the attribute bitset past its inline word; the programs reach arity 0
//! and arities past 20.

use std::collections::BTreeMap;

use flexrel_core::attr::Attr;
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;

type Model = BTreeMap<String, Value>;

/// Names interned first, so their ids are low.
const LOW: [&str; 12] = [
    "a", "ab", "abc", "b", "ba", "bab", "x1", "x2", "y1", "y2", "id", "kind",
];

/// Names interned after 64 fillers, so their ids are at least 64.
const HIGH: [&str; 10] = ["s", "sa", "sab", "sb", "t1", "t2", "t3", "u", "uu", "uuu"];

/// The pool: the low names, every filler and the high names.
fn pool() -> Vec<String> {
    let mut pool: Vec<String> = LOW.iter().map(|n| n.to_string()).collect();
    pool.extend((0..64).map(|i| format!("fill-{i:02}")));
    pool.extend(HIGH.iter().map(|n| n.to_string()));
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

/// A name from the pool, drawn mostly from the prefix and equal-length
/// groups at both ends.
fn pick<'a>(s: &mut u64, pool: &'a [String]) -> &'a str {
    let i = split_mix(s) as usize;
    match i % 3 {
        0 => &pool[(i / 3) % LOW.len()],
        1 => &pool[pool.len() - 1 - (i / 3) % HIGH.len()],
        _ => &pool[(i / 3) % pool.len()],
    }
}

fn value(s: &mut u64) -> Value {
    match split_mix(s) % 3 {
        0 => Value::Int((split_mix(s) % 100) as i64),
        1 => Value::str(format!("v{}", split_mix(s) % 10)),
        _ => Value::Null,
    }
}

/// Every lookup of every pool name, and of names no tuple holds, agrees
/// with the model.
fn check(t: &Tuple, m: &Model, pool: &[String]) {
    assert_eq!(t.arity(), m.len());
    assert!(t
        .iter()
        .map(|(a, _)| a.name())
        .eq(m.keys().map(String::as_str)));
    for name in pool {
        let a = Attr::new(name);
        let want = m.get(name);
        assert_eq!(t.get(&a), want, "get({name}) on {t}");
        assert_eq!(t.get_name(name), want, "get_name({name}) on {t}");
        assert_eq!(t.has(&a), want.is_some(), "has({name}) on {t}");
        assert_eq!(t.has_name(name), want.is_some(), "has_name({name}) on {t}");
    }
    for absent in ["", "a ", "abcd", "never-interned-here"] {
        assert_eq!(t.get_name(absent), None);
        assert!(!t.has_name(absent));
    }
}

#[test]
fn lookups_insert_and_remove_match_the_map_model() {
    let pool = pool();
    assert!(LOW.iter().all(|n| Attr::new(n).id() < 64));
    assert!(HIGH.iter().all(|n| Attr::new(n).id() >= 64));
    let (mut saw_empty, mut widest) = (false, 0);
    for seed in 0..400u64 {
        let mut s = seed;
        let (mut t, mut m) = (Tuple::new(), Model::new());
        check(&t, &m, &pool);
        // Grow to an arity of up to 40, then mix inserts and removes.
        let target = (split_mix(&mut s) % 41) as usize;
        let steps = target + (split_mix(&mut s) % 40) as usize;
        for step in 0..steps {
            let name = pick(&mut s, &pool);
            if step < target || split_mix(&mut s).is_multiple_of(2) {
                let v = value(&mut s);
                t.insert(name, v.clone());
                m.insert(name.to_string(), v);
            } else {
                let got = t.remove(&Attr::new(name));
                assert_eq!(got, m.remove(name), "remove({name})");
            }
            check(&t, &m, &pool);
            saw_empty |= m.is_empty();
            widest = widest.max(m.len());
        }
        // Emptying the tuple one attribute at a time ends at arity 0.
        for name in m.keys().rev() {
            assert!(t.remove(&Attr::new(name)).is_some());
        }
        assert_eq!(t, Tuple::empty());
        check(&t, &Model::new(), &pool);
    }
    assert!(saw_empty && widest >= 20, "arity 0 and ≥ 20: {widest}");
}
