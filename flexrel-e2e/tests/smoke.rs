//! Runs `flexrel-e2e --smoke` on every workload of `BENCHMARK.json`, in
//! both trace modes, and holds the printed result to the contract: the
//! metric names and units are exactly the file's, every value is finite,
//! every end-to-end value is positive, and no operation failed.

use std::collections::BTreeMap;
use std::process::Command;

/// Just enough JSON for `BENCHMARK.json` and the benchmark's result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let v = p.value();
        p.space();
        assert_eq!(p.at, p.bytes.len(), "trailing bytes after the JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(lit.as_bytes());
        if hit {
            self.at += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Json {
        self.space();
        if self.eat("null") {
            Json::Null
        } else if self.eat("true") {
            Json::Bool(true)
        } else if self.eat("false") {
            Json::Bool(false)
        } else if self.eat("\"") {
            Json::Str(self.string())
        } else if self.eat("[") {
            let mut items = Vec::new();
            self.space();
            if !self.eat("]") {
                loop {
                    items.push(self.value());
                    self.space();
                    if self.eat("]") {
                        break;
                    }
                    assert!(self.eat(","), "expected , or ] at byte {}", self.at);
                }
            }
            Json::Arr(items)
        } else if self.eat("{") {
            let mut map = BTreeMap::new();
            self.space();
            if !self.eat("}") {
                loop {
                    self.space();
                    assert!(self.eat("\""), "expected a key at byte {}", self.at);
                    let key = self.string();
                    self.space();
                    assert!(self.eat(":"), "expected : at byte {}", self.at);
                    let fresh = map.insert(key, self.value()).is_none();
                    assert!(fresh, "duplicate key");
                    self.space();
                    if self.eat("}") {
                        break;
                    }
                    assert!(self.eat(","), "expected , or }} at byte {}", self.at);
                }
            }
            Json::Obj(map)
        } else {
            let start = self.at;
            while self.at < self.bytes.len()
                && matches!(
                    self.bytes[self.at],
                    b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                )
            {
                self.at += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap();
            Json::Num(
                text.parse()
                    .unwrap_or_else(|_| panic!("bad number {text:?}")),
            )
        }
    }

    /// After the opening quote.  The files at hand escape nothing but
    /// quotes and backslashes.
    fn string(&mut self) -> String {
        let mut out = Vec::new();
        loop {
            match self.bytes[self.at] {
                b'"' => break,
                b'\\' => {
                    self.at += 1;
                    out.push(self.bytes[self.at]);
                }
                b => out.push(b),
            }
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(out).unwrap()
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(bench: &Json, list: &str) -> BTreeMap<String, String> {
    bench
        .get(list)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_flexrel-e2e"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("running flexrel-e2e");
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    Json::parse(stdout.lines().last().expect("a result line"))
}

fn check(workload: &str, trace: bool, declared: &BTreeMap<String, String>) {
    let result = run(workload, trace);
    let Json::Obj(top) = &result else {
        panic!("the result is not an object");
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &Json::Bool(true), "{workload}");
    assert_eq!(result.get("failed").num(), 0.0, "{workload}: ops_failed");
    assert!(result.get("attempted").num() >= 1.0);

    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics is not an object");
    };
    let printed: BTreeMap<String, String> = metrics
        .iter()
        .map(|(name, m)| (name.clone(), m.get("unit").str().to_string()))
        .collect();
    assert_eq!(
        &printed, declared,
        "{workload} trace={trace}: names and units"
    );
    for (name, m) in metrics {
        let value = m.get("value").num();
        assert!(value.is_finite(), "{workload} {name} = {value}");
        // Per-layer rows may be zero (no Busy, no tuple materialized) and
        // differences may dip below it; end-to-end values never are.
        assert!(trace || value > 0.0, "{workload} {name} = {value}");
    }
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let bench = benchmark_json();
    let workloads: Vec<&str> = bench
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(
        workloads,
        ["point_wire", "analytic_wire", "mixed_wire", "write_durable"]
    );
    let end_to_end = declared(&bench, "end_to_end");
    let per_layer = declared(&bench, "per_layer");
    assert!(end_to_end.contains_key("setup_s"));
    for workload in workloads {
        check(workload, false, &end_to_end);
        check(workload, true, &per_layer);
    }
}

#[test]
fn a_bad_invocation_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_flexrel-e2e"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("running flexrel-e2e");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
