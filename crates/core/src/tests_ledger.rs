//! Property tests for the ledger line decoder.
//!
//! `RunRecord::parse_line` decodes straight from a JSON cursor. The
//! reference below is the decoder it replaced: `parse_json` builds a
//! `Value` tree and the record is copied out of it. The campaign feeds both
//! arbitrary bytes, mutations of real schema-1/2/3 lines and fixed corrupt
//! lines, and requires that nothing panics, that both accept the same
//! lines, that accepted lines give the same record, and that an accepted
//! record re-emits to a fixpoint.

use crate::{RequestTrace, RunRecord, LEDGER_SCHEMA, LEDGER_SCHEMA_MIN};
use benchpark_ramble::{ExperimentResult, ExperimentStatus, FomValue};
use benchpark_telemetry::TelemetrySink;
use benchpark_yamlite::{emit_json, json_string, parse_json, Value};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// The `parse_json` → `Value` decoder `parse_line` replaced, kept as the
/// oracle for what a ledger line means.
fn reference_parse_line(line: &str) -> Result<RunRecord, String> {
    let doc = parse_json(line)?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_int)
        .ok_or("record lacks `schema`")?;
    if !(LEDGER_SCHEMA_MIN..=LEDGER_SCHEMA).contains(&schema) {
        return Err(format!("unknown ledger schema version {schema}"));
    }
    let text = |key: &str| -> Result<String, String> {
        doc.get(key)
            .and_then(Value::as_str)
            .map(String::from)
            .ok_or_else(|| format!("record lacks `{key}`"))
    };
    let mut results = Vec::new();
    for item in doc
        .get("results")
        .and_then(Value::as_seq)
        .ok_or("record lacks `results`")?
    {
        results.push(reference_result(item)?);
    }
    let mut fingerprints = Vec::new();
    if let Some(map) = doc.get("fingerprints").and_then(Value::as_map) {
        for (experiment, fingerprint) in map.iter() {
            let fingerprint = fingerprint
                .as_str()
                .ok_or("fingerprint must be a string")?
                .to_string();
            fingerprints.push((experiment.clone(), fingerprint));
        }
    }
    let mut counters = Vec::new();
    let mut observations = Vec::new();
    if let Some(telemetry) = doc.get("telemetry") {
        if let Some(map) = telemetry.get("counters").and_then(Value::as_map) {
            for (name, total) in map.iter() {
                let total = total.as_int().ok_or("counter total must be an integer")?;
                if total < 0 {
                    return Err(format!("counter `{name}` total {total} is negative"));
                }
                counters.push((name.clone(), total as u64));
            }
        }
        if let Some(map) = telemetry.get("observations").and_then(Value::as_map) {
            for (name, mean) in map.iter() {
                let mean = mean.as_float().ok_or("observation mean must be numeric")?;
                observations.push((name.clone(), mean));
            }
        }
    }
    let mut request = None;
    if let Some(map) = doc.get("request").and_then(Value::as_map) {
        let tick = |key: &str| -> Result<u64, String> {
            let value = map
                .get(key)
                .and_then(Value::as_int)
                .ok_or_else(|| format!("request trace lacks `{key}`"))?;
            if value < 0 {
                return Err(format!("request trace `{key}` {value} is negative"));
            }
            Ok(value as u64)
        };
        request = Some(RequestTrace {
            tenant: map
                .get("tenant")
                .and_then(Value::as_str)
                .ok_or("request trace lacks `tenant`")?
                .to_string(),
            request_id: tick("request_id")?,
            submit_tick: tick("submit_tick")?,
            queue_wait_ticks: tick("queue_wait_ticks")?,
            schedule_ticks: tick("schedule_ticks")?,
            execute_ticks: tick("execute_ticks")?,
            commit_ticks: tick("commit_ticks")?,
        });
    }
    let sequence = doc
        .get("sequence")
        .and_then(Value::as_int)
        .ok_or("record lacks `sequence`")?;
    if sequence < 0 {
        return Err(format!("sequence {sequence} is negative"));
    }
    Ok(RunRecord {
        sequence: sequence as u64,
        system: text("system")?,
        benchmark: text("benchmark")?,
        variant: text("variant")?,
        manifest: text("manifest")?,
        results,
        fingerprints,
        counters,
        observations,
        request,
    })
}

fn reference_result(value: &Value) -> Result<ExperimentResult, String> {
    let text = |key: &str| -> Result<String, String> {
        value
            .get(key)
            .and_then(Value::as_str)
            .map(String::from)
            .ok_or_else(|| format!("experiment result lacks `{key}`"))
    };
    let status = match text("status")?.as_str() {
        "Success" => ExperimentStatus::Success,
        "Failed" => ExperimentStatus::Failed,
        "JobError" => ExperimentStatus::JobError,
        other => return Err(format!("unknown experiment status `{other}`")),
    };
    let mut foms = Vec::new();
    for item in value
        .get("foms")
        .and_then(Value::as_seq)
        .ok_or("experiment result lacks `foms`")?
    {
        let field = |key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Value::as_str)
                .map(String::from)
                .ok_or_else(|| format!("fom lacks `{key}`"))
        };
        let mut context = BTreeMap::new();
        if let Some(map) = item.get("context").and_then(Value::as_map) {
            for (k, v) in map.iter() {
                context.insert(k.clone(), v.scalar_string().unwrap_or_default());
            }
        }
        foms.push(FomValue {
            name: field("name")?,
            value: field("value")?,
            units: field("units")?,
            context,
        });
    }
    let mut criteria = Vec::new();
    if let Some(items) = value.get("criteria").and_then(Value::as_seq) {
        for pair in items {
            let pair = pair.as_seq().ok_or("criterion must be a [name, ok] pair")?;
            match pair {
                [Value::Str(name), Value::Bool(ok)] => criteria.push((name.clone(), *ok)),
                _ => return Err("criterion must be a [name, ok] pair".to_string()),
            }
        }
    }
    let variables = value
        .get("variables")
        .and_then(Value::as_map)
        .map(|map| {
            map.iter()
                .map(|(k, v)| match v.as_str() {
                    Some(text) => (k, Cow::Borrowed(text)),
                    None => (k, Cow::Owned(v.scalar_string().unwrap_or_default())),
                })
                .collect()
        })
        .unwrap_or_default();
    let mut profile = Vec::new();
    if let Some(items) = value.get("profile").and_then(Value::as_seq) {
        for pair in items {
            let pair = pair
                .as_seq()
                .ok_or("profile entry must be [name, seconds]")?;
            match pair {
                [Value::Str(name), seconds] => profile.push((
                    name.clone(),
                    seconds
                        .as_float()
                        .ok_or("profile seconds must be numeric")?,
                )),
                _ => return Err("profile entry must be [name, seconds]".to_string()),
            }
        }
    }
    Ok(ExperimentResult {
        experiment: text("experiment")?,
        application: text("application")?,
        workload: text("workload")?,
        status,
        foms,
        criteria,
        variables,
        profile,
        cached: value
            .get("cached")
            .and_then(Value::as_bool)
            .unwrap_or(false),
    })
}

/// Both decoders on one line: same verdict, same record, and an accepted
/// record re-emits to a fixpoint.
fn check_line(line: &str) -> Result<(), TestCaseError> {
    let decoded = RunRecord::parse_line(line);
    let reference = reference_parse_line(line);
    prop_assert_eq!(
        decoded.is_ok(),
        reference.is_ok(),
        "verdicts differ on {:?}: {:?} vs {:?}",
        line,
        decoded.as_ref().err(),
        reference.as_ref().err()
    );
    if let (Ok(decoded), Ok(reference)) = (decoded, reference) {
        prop_assert_eq!(
            format!("{decoded:?}"),
            format!("{reference:?}"),
            "on {:?}",
            line
        );
        let emitted = decoded.to_json_line();
        let again = RunRecord::parse_line(&emitted)
            .map_err(|e| TestCaseError::fail(format!("re-emitted line rejected: {e}")))?;
        prop_assert_eq!(again.to_json_line(), emitted);
    }
    Ok(())
}

fn result(index: usize, status: ExperimentStatus) -> ExperimentResult {
    let mut context = BTreeMap::new();
    context.insert("size".to_string(), format!("{}", 1 << index));
    ExperimentResult {
        experiment: format!("saxpy_{index}"),
        application: "saxpy".to_string(),
        workload: "problem".to_string(),
        status,
        foms: vec![
            FomValue {
                name: "time".to_string(),
                value: format!("{}.25", index + 1),
                units: "s".to_string(),
                context,
            },
            FomValue {
                name: "bw".to_string(),
                value: "182.5".to_string(),
                units: "GB/s".to_string(),
                context: BTreeMap::new(),
            },
        ],
        criteria: vec![("done".to_string(), true), ("fast".to_string(), index == 0)],
        variables: [
            ("n_nodes", "1"),
            ("n_threads", "8"),
            ("größe", "日本語"),
            ("line\nbreak", "tab\there"),
        ]
        .into(),
        profile: vec![("setup".to_string(), 0.5), ("solve".to_string(), 2.0e-3)],
        cached: index == 1,
    }
}

/// Real ledger lines, one per schema version, with every optional block
/// filled, plus a bare schema-3 record.
fn seed_lines() -> Vec<String> {
    let sink = TelemetrySink::recording();
    sink.incr("cache.hit", 4);
    sink.incr("cache.miss", 1);
    sink.observe("queue.depth", 2.5);
    let report = sink.report().unwrap();
    let results = [
        result(0, ExperimentStatus::Success),
        result(1, ExperimentStatus::Failed),
        result(2, ExperimentStatus::JobError),
    ];
    let mut record = RunRecord::from_run(
        "cts1",
        "saxpy",
        "openmp",
        "ramble:\n  variables:\n    n_ranks: '8'\n",
        &results,
        Some(&report),
    )
    .with_fingerprints(vec![
        ("saxpy_0".to_string(), "00000000deadbeef".to_string()),
        ("saxpy_1".to_string(), "0123456789abcdef".to_string()),
    ])
    .with_request(RequestTrace {
        tenant: "alice".to_string(),
        request_id: 17,
        submit_tick: 3,
        queue_wait_ticks: 9,
        schedule_ticks: 1,
        execute_ticks: 812,
        commit_ticks: 2,
    });
    record.sequence = 5;
    let schema3 = record.to_json_line();
    record.request = None;
    let schema2 = record
        .to_json_line()
        .replacen("{\"schema\":3,", "{\"schema\":2,", 1);
    record.fingerprints.clear();
    let schema1 = record
        .to_json_line()
        .replacen("{\"schema\":3,", "{\"schema\":1,", 1);
    let bare = RunRecord::from_run("ats2", "stream", "cuda", "m", &[], None).to_json_line();
    vec![schema3, schema2, schema1, bare]
}

/// Corrupt lines the ledger tests already skip, and near misses.
const FIXED_LINES: &[&str] = &[
    "",
    "half a rec",
    "{\"schema\":999}",
    "{\"schema\":2,\"sequence\":9,\"sys",
    "{\"schema\":3.0,\"sequence\":1,\"system\":\"s\",\"benchmark\":\"b\",\"variant\":\"v\",\"manifest\":\"m\",\"results\":[]}",
    "{\"schema\":3,\"sequence\":1,\"system\":\"s\",\"benchmark\":\"b\",\"variant\":\"v\",\"manifest\":\"m\",\"results\":[]}",
    "{\"schema\":3,\"sequence\":1,\"system\":\"s\",\"benchmark\":\"b\",\"variant\":\"v\",\"manifest\":\"m\",\"results\":[],\"telemetry\":[1]}",
    "{\"schema\":3,\"sequence\":1,\"system\":\"s\",\"benchmark\":\"b\",\"variant\":\"v\",\"manifest\":\"m\",\"results\":[],\"telemetry\":{\"counters\":{\"a\":-1,\"a\":2}}}",
    "{\"schema\":3,\"sequence\":1,\"system\":\"s\",\"benchmark\":\"b\",\"variant\":\"v\",\"manifest\":\"m\",\"results\":[],\"telemetry\":{\"counters\":{\"a\":2,\"a\":-1}}}",
    "{\"schema\":3,\"sequence\":-1,\"system\":\"s\",\"benchmark\":\"b\",\"variant\":\"v\",\"manifest\":\"m\",\"results\":[],\"sequence\":1}",
    "{\"schema\":3,\"sequence\":1,\"system\":\"s\",\"benchmark\":\"b\",\"variant\":\"v\",\"manifest\":\"m\",\"results\":[]} x",
    "[\"schema\",3]",
];

/// Values a mutation puts where a field was, biased toward what ledger
/// fields take and the shapes just beside them.
const JUNK: &[&str] = &[
    "-1",
    "-3",
    "0",
    "7",
    "1.5",
    "2e3",
    "-0.0",
    "\"Bogus\"",
    "\"Success\"",
    "\"x\\u00e9\"",
    "null",
    "true",
    "false",
    "[]",
    "{}",
    "[1]",
    "[\"a\"]",
    "[\"a\",true]",
    "[\"a\",1.5]",
    "[\"a\",true,1]",
    "[[\"a\",true]]",
    "[[\"a\",2]]",
    "[[\"a\",{}]]",
    "[[\"a\",[]]]",
    "[[\"a\",true,null]]",
    "[{\"a\":1}]",
    "{\"a\":1}",
    "{\"a\":\"b\"}",
    "{\"a\":1.0,\"b\":null,\"c\":[1]}",
    "99999999999999999999",
];

fn junk(rng: &mut TestRng) -> String {
    JUNK[rng.below(JUNK.len() as u64) as usize].to_string()
}

/// `levels` nested collections around a scalar, alternating arrays and
/// single-key objects.
fn nested(levels: usize) -> String {
    let mut text = String::new();
    for level in 0..levels {
        text.push_str(if level % 2 == 0 { "[" } else { "{\"k\":" });
    }
    text.push('1');
    for level in (0..levels).rev() {
        text.push(if level % 2 == 0 { ']' } else { '}' });
    }
    text
}

/// A JSON tree that keeps repeated keys, so mutations can add them.
#[derive(Clone)]
enum Json {
    Scalar(String),
    Seq(Vec<Json>),
    Map(Vec<(String, Json)>),
}

impl Json {
    fn from_value(value: &Value) -> Json {
        match value {
            Value::Seq(items) => Json::Seq(items.iter().map(Json::from_value).collect()),
            Value::Map(map) => Json::Map(
                map.iter()
                    .map(|(k, v)| (k.clone(), Json::from_value(v)))
                    .collect(),
            ),
            scalar => Json::Scalar(emit_json(scalar)),
        }
    }

    fn emit(&self, out: &mut String) {
        match self {
            Json::Scalar(text) => out.push_str(text),
            Json::Seq(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit(out);
                }
                out.push(']');
            }
            Json::Map(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_string(key));
                    out.push(':');
                    value.emit(out);
                }
                out.push('}');
            }
        }
    }

    /// Every map in the tree: its path of entry and item indices from the
    /// root, its nesting depth (the top level is 1), and the key it sits
    /// under (`""` at the top).
    fn maps(
        &self,
        path: &mut Vec<usize>,
        depth: usize,
        under: &str,
        out: &mut Vec<(Vec<usize>, usize, String)>,
    ) {
        match self {
            Json::Scalar(_) => {}
            Json::Seq(items) => {
                for (i, item) in items.iter().enumerate() {
                    path.push(i);
                    item.maps(path, depth + 1, under, out);
                    path.pop();
                }
            }
            Json::Map(entries) => {
                out.push((path.clone(), depth, under.to_string()));
                for (i, (key, value)) in entries.iter().enumerate() {
                    path.push(i);
                    value.maps(path, depth + 1, key, out);
                    path.pop();
                }
            }
        }
    }

    fn entries_at(&mut self, path: &[usize]) -> &mut Vec<(String, Json)> {
        match (self, path) {
            (Json::Map(entries), []) => entries,
            (Json::Map(entries), [i, rest @ ..]) => entries[*i].1.entries_at(rest),
            (Json::Seq(items), [i, rest @ ..]) => items[*i].entries_at(rest),
            _ => unreachable!("paths come from maps()"),
        }
    }
}

/// One mutation of a real line: a byte flip, a truncation, a repeated key
/// with a junk value before or after the original, a junk value in place of
/// one, or a collection nested to 127/128/129 levels under an unknown key
/// or a variable.
fn mutate(line: &str, rng: &mut TestRng) -> String {
    match rng.below(5) {
        0 => {
            const BYTES: &[u8] = b"{}[]\":,\\ -.0123456789eEtrufalsn\x01\x7f";
            let mut bytes = line.as_bytes().to_vec();
            for _ in 0..=rng.below(3) {
                let at = rng.below(bytes.len() as u64) as usize;
                bytes[at] = BYTES[rng.below(BYTES.len() as u64) as usize];
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        1 => {
            let mut cut = rng.below(line.len() as u64 + 1) as usize;
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            line[..cut].to_string()
        }
        choice => {
            let mut tree = Json::from_value(&parse_json(line).expect("seed lines parse"));
            let mut maps = Vec::new();
            tree.maps(&mut Vec::new(), 1, "", &mut maps);
            let (path, depth, under) = maps.swap_remove(rng.below(maps.len() as u64) as usize);
            let entries = tree.entries_at(&path);
            if choice < 4 && !entries.is_empty() {
                let at = rng.below(entries.len() as u64) as usize;
                let value = Json::Scalar(junk(rng));
                if choice == 2 {
                    let key = entries[at].0.clone();
                    let before = rng.below(2) == 0;
                    entries.insert(if before { at } else { at + 1 }, (key, value));
                } else {
                    entries[at].1 = value;
                }
            } else {
                let levels = (127usize + rng.below(3) as usize).saturating_sub(depth);
                let key = if under == "variables" {
                    "deep"
                } else {
                    "zz_unknown"
                };
                let at = rng.below(entries.len() as u64 + 1) as usize;
                entries.insert(at, (key.to_string(), Json::Scalar(nested(levels))));
            }
            let mut out = String::new();
            tree.emit(&mut out);
            out
        }
    }
}

#[test]
fn decoder_agrees_with_reference_on_fixtures() {
    for line in seed_lines() {
        assert!(RunRecord::parse_line(&line).is_ok(), "{line}");
        check_line(&line).unwrap();
    }
    for line in FIXED_LINES {
        check_line(line).unwrap();
    }
    // nesting 127/128/129 levels deep inside an unknown key and a variable
    let line = &seed_lines()[0];
    for (total, ok) in [(127, true), (128, true), (129, false)] {
        let unknown = line.replacen(
            "{\"schema\":3,",
            &format!("{{\"x\":{},\"schema\":3,", nested(total - 1)),
            1,
        );
        let variable = line.replacen(
            "\"variables\":{",
            &format!("\"variables\":{{\"deep\":{},", nested(total - 4)),
            1,
        );
        for line in [unknown, variable] {
            assert_eq!(RunRecord::parse_line(&line).is_ok(), ok, "{total} levels");
            check_line(&line).unwrap();
        }
    }
}

/// Every entry of every object in a real line, replaced by each junk value
/// and shadowed by it from before and from after.
#[test]
fn decoder_agrees_with_reference_on_every_field_and_junk_value() {
    let line = &seed_lines()[0];
    let tree = Json::from_value(&parse_json(line).unwrap());
    let mut maps = Vec::new();
    tree.maps(&mut Vec::new(), 1, "", &mut maps);
    let mut checked = 0;
    for (path, _, _) in &maps {
        for at in 0..tree.clone().entries_at(path).len() {
            for junk in JUNK {
                for mode in 0..3 {
                    let mut tree = tree.clone();
                    let entries = tree.entries_at(path);
                    let value = Json::Scalar(junk.to_string());
                    match mode {
                        0 => entries[at].1 = value,
                        _ => {
                            let key = entries[at].0.clone();
                            entries.insert(at + mode - 1, (key, value));
                        }
                    }
                    let mut out = String::new();
                    tree.emit(&mut out);
                    check_line(&out).unwrap();
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 5000, "{checked}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn decoder_agrees_with_reference_on_mutated_lines(seed in 0usize..4, noise in any::<u64>()) {
        let mut rng = TestRng::from_seed(noise);
        let mut line = seed_lines().swap_remove(seed);
        for _ in 0..=rng.below(2) {
            if parse_json(&line).is_err() {
                break;
            }
            line = mutate(&line, &mut rng);
        }
        check_line(&line)?;
    }

    #[test]
    fn decoder_agrees_with_reference_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        check_line(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn decoder_agrees_with_reference_on_json_shaped_text(text in "[{}\\[\\]\":, 0-9a-z.\\-]{0,120}") {
        check_line(&text)?;
    }
}
