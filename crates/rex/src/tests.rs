//! Unit and property tests for the regex engine.

use crate::Regex;

fn m(pattern: &str, haystack: &str) -> Option<(usize, usize)> {
    Regex::new(pattern)
        .unwrap()
        .find(haystack)
        .map(|m| (m.start, m.end))
}

#[test]
fn literal_match() {
    assert_eq!(m("abc", "xxabcxx"), Some((2, 5)));
    assert_eq!(m("abc", "ab"), None);
    assert_eq!(m("", "anything"), Some((0, 0)));
}

#[test]
fn leftmost_match() {
    assert_eq!(m("a", "xaxa"), Some((1, 2)));
}

#[test]
fn dot_does_not_match_newline() {
    assert_eq!(m("a.c", "abc"), Some((0, 3)));
    assert_eq!(m("a.c", "a\nc"), None);
}

#[test]
fn classes() {
    assert_eq!(m("[a-c]+", "zzabcaz"), Some((2, 6)));
    assert_eq!(m("[^a-c]+", "abcxyz"), Some((3, 6)));
    assert_eq!(m(r"[\d]+", "ab123cd"), Some((2, 5)));
    assert_eq!(m("[-a]", "b-"), Some((1, 2))); // trailing/leading dash literal
    assert_eq!(m("[a-]", "-"), Some((0, 1)));
}

#[test]
fn escapes() {
    assert_eq!(m(r"\d+", "abc 42 def"), Some((4, 6)));
    assert_eq!(m(r"\w+", "  hello_1 "), Some((2, 9)));
    assert_eq!(m(r"\s", "ab cd"), Some((2, 3)));
    assert_eq!(m(r"\D+", "12ab34"), Some((2, 4)));
    assert_eq!(m(r"a\.b", "a.b"), Some((0, 3)));
    assert_eq!(m(r"a\.b", "axb"), None);
    assert_eq!(m(r"\(\)", "()"), Some((0, 2)));
}

#[test]
fn quantifiers() {
    assert_eq!(m("ab*c", "ac"), Some((0, 2)));
    assert_eq!(m("ab*c", "abbbc"), Some((0, 5)));
    assert_eq!(m("ab+c", "ac"), None);
    assert_eq!(m("ab?c", "abc"), Some((0, 3)));
    assert_eq!(m("a{3}", "aaaa"), Some((0, 3)));
    assert_eq!(m("a{2,}", "aaa"), Some((0, 3)));
    assert_eq!(m("a{2,3}", "aaaa"), Some((0, 3)));
    assert_eq!(m("a{2,3}", "a"), None);
}

#[test]
fn greedy_vs_lazy() {
    assert_eq!(m("<.*>", "<a><b>"), Some((0, 6)));
    assert_eq!(m("<.*?>", "<a><b>"), Some((0, 3)));
    assert_eq!(m("a+?", "aaa"), Some((0, 1)));
}

#[test]
fn literal_braces_allowed() {
    // Ramble variable templates like `{n_threads}` appear in patterns.
    assert_eq!(m(r"\{n\}", "{n}"), Some((0, 3)));
    assert_eq!(m("{n}", "x{n}y"), Some((1, 4))); // `{` not a valid counted rep → literal
    assert_eq!(m("a{,3}", "a{,3}"), Some((0, 5))); // `{,3}` is literal in our dialect
}

#[test]
fn alternation() {
    assert_eq!(m("cat|dog", "hotdog"), Some((3, 6)));
    assert_eq!(m("a|ab", "ab"), Some((0, 1))); // leftmost-first: prefers `a`
    assert_eq!(m("ab|a", "ab"), Some((0, 2)));
    assert_eq!(m("x(a|b)+y", "xababy"), Some((0, 6)));
}

#[test]
fn anchors() {
    assert_eq!(m("^abc", "abcdef"), Some((0, 3)));
    assert_eq!(m("^abc", "xabc"), None);
    assert_eq!(m("def$", "abcdef"), Some((3, 6)));
    assert_eq!(m("def$", "defx"), None);
    assert_eq!(m("^$", ""), Some((0, 0)));
    assert_eq!(m("^$", "x"), None);
}

#[test]
fn word_boundaries() {
    assert_eq!(m(r"\bcat\b", "a cat sat"), Some((2, 5)));
    assert_eq!(m(r"\bcat\b", "concatenate"), None);
    assert_eq!(m(r"\Bcat\B", "concatenate"), Some((3, 6)));
}

#[test]
fn captures_numbered() {
    let re = Regex::new(r"(\d+)-(\d+)").unwrap();
    let caps = re.captures("range 10-25 end").unwrap();
    assert_eq!(caps.get(0).unwrap().text, "10-25");
    assert_eq!(caps.get(1).unwrap().text, "10");
    assert_eq!(caps.get(2).unwrap().text, "25");
    assert_eq!(caps.len(), 3);
}

#[test]
fn captures_named() {
    let re = Regex::new(r"(?P<lo>\d+)-(?P<hi>\d+)").unwrap();
    let caps = re.captures("10-25").unwrap();
    assert_eq!(caps.name("lo").unwrap().text, "10");
    assert_eq!(caps.name("hi").unwrap().text, "25");
    assert!(caps.name("missing").is_none());
    let names: Vec<&str> = re.capture_names().collect();
    assert_eq!(names, vec!["lo", "hi"]);
}

#[test]
fn rust_style_named_group() {
    let re = Regex::new(r"(?<val>\w+)").unwrap();
    assert_eq!(re.captures("abc").unwrap().name("val").unwrap().text, "abc");
}

#[test]
fn optional_group_not_participating() {
    let re = Regex::new(r"a(b)?c").unwrap();
    let caps = re.captures("ac").unwrap();
    assert_eq!(caps.get(0).unwrap().text, "ac");
    assert!(caps.get(1).is_none());
}

#[test]
fn repeated_group_keeps_last() {
    let re = Regex::new(r"(a|b)+").unwrap();
    let caps = re.captures("abab").unwrap();
    assert_eq!(caps.get(1).unwrap().text, "b");
}

#[test]
fn non_capturing_group() {
    let re = Regex::new(r"(?:ab)+(c)").unwrap();
    let caps = re.captures("ababc").unwrap();
    assert_eq!(caps.get(0).unwrap().text, "ababc");
    assert_eq!(caps.get(1).unwrap().text, "c");
    assert_eq!(caps.len(), 2);
}

#[test]
fn find_iter_non_overlapping() {
    let re = Regex::new(r"\d+").unwrap();
    let nums: Vec<&str> = re.find_iter("a1b22c333").map(|m| m.text).collect();
    assert_eq!(nums, vec!["1", "22", "333"]);
}

#[test]
fn find_iter_empty_matches_progress() {
    let re = Regex::new(r"x*").unwrap();
    let spans: Vec<(usize, usize)> = re.find_iter("axa").map(|m| (m.start, m.end)).collect();
    // Must terminate and cover each position at most once.
    assert!(spans.len() <= 4);
    assert!(spans.contains(&(1, 2)));
}

#[test]
fn captures_iter() {
    let re = Regex::new(r"(?P<k>\w+)=(?P<v>\d+)").unwrap();
    let pairs: Vec<(String, String)> = re
        .captures_iter("a=1 b=22 c=333")
        .map(|c| {
            (
                c.name("k").unwrap().text.to_string(),
                c.name("v").unwrap().text.to_string(),
            )
        })
        .collect();
    assert_eq!(
        pairs,
        vec![
            ("a".into(), "1".into()),
            ("b".into(), "22".into()),
            ("c".into(), "333".into())
        ]
    );
}

#[test]
fn unicode_input() {
    assert_eq!(m("é+", "café is café"), Some((3, 5)));
    let re = Regex::new(".").unwrap();
    assert_eq!(re.find("λx").unwrap().text, "λ");
}

/// The exact FOM regex from paper Figure 8.
#[test]
fn golden_fig8_fom_regex() {
    let re = Regex::new(r"(?P<done>Kernel done)").unwrap();
    let out = "initializing\nKernel done\ncleanup\n";
    let caps = re.captures(out).unwrap();
    assert_eq!(caps.name("done").unwrap().text, "Kernel done");
}

/// Typical FOM extraction patterns used by real Ramble applications.
#[test]
fn realistic_fom_patterns() {
    let re = Regex::new(r"Figure of Merit \(FOM_2\):\s+(?P<fom>[0-9]+\.[0-9]+)").unwrap();
    let caps = re.captures("Figure of Merit (FOM_2):   123.456").unwrap();
    assert_eq!(caps.name("fom").unwrap().text, "123.456");

    let re = Regex::new(r"^Solve time: (?P<t>\d+\.\d+(e[+-]?\d+)?) seconds$").unwrap();
    let caps = re.captures("Solve time: 1.25e+01 seconds").unwrap();
    assert_eq!(caps.name("t").unwrap().text, "1.25e+01");
}

#[test]
fn compile_errors() {
    assert!(Regex::new("(abc").is_err());
    assert!(Regex::new("abc)").is_err());
    assert!(Regex::new("[abc").is_err());
    assert!(Regex::new("*a").is_err());
    assert!(Regex::new(r"\q").is_err());
    assert!(Regex::new("[z-a]").is_err());
    assert!(Regex::new("a{3,2}").is_err());
    assert!(Regex::new("(?P<dup>a)(?P<dup>b)").is_err());
    assert!(Regex::new("(?P<>a)").is_err());
    assert!(Regex::new("^*").is_err());
}

/// Group nesting past `MAX_DEPTH` is a `RexError`, never a stack overflow
/// that aborts the process.
#[test]
fn nesting_is_bounded_not_fatal() {
    use crate::ast::MAX_DEPTH;
    for open in ["(", "(?:"] {
        let nested = |depth: usize| format!("{}a{}", open.repeat(depth), ")".repeat(depth));
        let re = Regex::new(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(re.find("xa").map(|m| (m.start, m.end)), Some((1, 2)));
        let err = Regex::new(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        assert!(Regex::new(&open.repeat(200_000)).is_err());
    }
}

/// Counted repetition is bounded too: a count above 1000 or a program past
/// `MAX_INSTS` is a `RexError`, and a long legal chain of epsilon
/// transitions matches without recursing once per transition.
#[test]
fn repetition_is_bounded_not_fatal() {
    use crate::prog::MAX_INSTS;
    for pattern in [
        "(?:a?){0,100000}b",
        "a{0,4000000000}",
        "a{1001}",
        "a{99999999999999}",
    ] {
        let err = Regex::new(pattern).unwrap_err();
        assert!(err.message.contains("above 1000"), "{pattern}: {err}");
    }
    let err = Regex::new("((a{1000}){1000}){1000}").unwrap_err();
    assert!(err.message.contains(&MAX_INSTS.to_string()), "{err}");
    assert!(Regex::new("a{1000}").unwrap().is_match(&"a".repeat(1000)));
    // 30,000 optional atoms: a 30,000-deep epsilon closure from the start
    let re = Regex::new("(?:(?:a?){1000}){30}b").unwrap();
    assert_eq!(re.find("xb").map(|m| (m.start, m.end)), Some((1, 2)));
    assert!(re.is_match(&format!("{}b", "a".repeat(50))));
}

#[test]
fn pathological_pattern_is_linear() {
    // (a+)+b on a long run of 'a's: catastrophic for backtrackers,
    // linear for the Pike VM.
    let re = Regex::new("(a+)+b").unwrap();
    let haystack = "a".repeat(2000);
    let start = std::time::Instant::now();
    assert!(!re.is_match(&haystack));
    assert!(start.elapsed().as_secs() < 5, "matching took too long");
}

// ---------------------------------------------------------------------------
// Property tests against a reference backtracking matcher.
// ---------------------------------------------------------------------------

mod reference {
    //! An obviously-correct oracle: enumerates *all* positions at which each
    //! sub-expression can stop matching. Exponential in principle, fine on the
    //! tiny generated inputs, and free of the engine's cleverness.

    use crate::ast::{parse, Assertion, Ast, ClassSet};
    use std::collections::BTreeSet;

    pub fn is_match(pattern: &str, haystack: &str) -> Option<bool> {
        let parsed = parse(pattern).ok()?;
        let chars: Vec<char> = haystack.chars().collect();
        Some((0..=chars.len()).any(|start| !ends(&parsed.ast, &chars, start).is_empty()))
    }

    /// All positions where `ast`, starting at `pos`, can stop matching.
    fn ends(ast: &Ast, chars: &[char], pos: usize) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        match ast {
            Ast::Empty => {
                out.insert(pos);
            }
            Ast::Lit(c) => {
                if chars.get(pos) == Some(c) {
                    out.insert(pos + 1);
                }
            }
            Ast::Dot => {
                if chars.get(pos).is_some_and(|&c| c != '\n') {
                    out.insert(pos + 1);
                }
            }
            Ast::Class(set) => {
                if chars.get(pos).is_some_and(|&c| set.matches(c)) {
                    out.insert(pos + 1);
                }
            }
            Ast::Assert(a) => {
                let prev = pos.checked_sub(1).and_then(|i| chars.get(i));
                let next = chars.get(pos);
                let boundary = prev.is_some_and(|&c| ClassSet::is_word_char(c))
                    != next.is_some_and(|&c| ClassSet::is_word_char(c));
                let holds = match a {
                    Assertion::Start => pos == 0,
                    Assertion::End => pos == chars.len(),
                    Assertion::WordBoundary => boundary,
                    Assertion::NotWordBoundary => !boundary,
                };
                if holds {
                    out.insert(pos);
                }
            }
            Ast::Concat(items) => {
                let mut cur = BTreeSet::from([pos]);
                for item in items {
                    let mut next = BTreeSet::new();
                    for &p in &cur {
                        next.extend(ends(item, chars, p));
                    }
                    cur = next;
                }
                out = cur;
            }
            Ast::Alt(branches) => {
                for b in branches {
                    out.extend(ends(b, chars, pos));
                }
            }
            Ast::Repeat {
                inner, min, max, ..
            } => {
                // positions reachable after exactly k iterations
                let mut frontier = BTreeSet::from([pos]);
                let hard_cap = max
                    .unwrap_or((chars.len() + 1) as u32)
                    .min(chars.len() as u32 + 2);
                let mut k = 0u32;
                if *min == 0 {
                    out.extend(frontier.iter().copied());
                }
                while k < hard_cap.max(*min) {
                    let mut next = BTreeSet::new();
                    for &p in &frontier {
                        next.extend(ends(inner, chars, p));
                    }
                    if next.is_empty() {
                        break;
                    }
                    k += 1;
                    if k >= *min && max.is_none_or(|m| k <= m) {
                        out.extend(next.iter().copied());
                    }
                    if next == frontier {
                        break; // empty-match fixpoint
                    }
                    frontier = next;
                }
            }
            Ast::Group { inner, .. } | Ast::NonCapturing(inner) => {
                out = ends(inner, chars, pos);
            }
        }
        out
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A strategy over patterns restricted to constructs the reference
    /// matcher handles faithfully.
    fn pattern_strategy() -> impl Strategy<Value = String> {
        let atom = prop_oneof![
            "[abc]",
            Just(".".to_string()),
            Just("a".to_string()),
            Just("b".to_string()),
            Just("c".to_string()),
            Just("[ab]".to_string()),
            Just("[^a]".to_string()),
            Just(r"\d".to_string()),
            Just(r"\w".to_string()),
        ];
        let repeated = (
            atom,
            prop_oneof![
                Just("".to_string()),
                Just("*".to_string()),
                Just("+".to_string()),
                Just("?".to_string()),
                Just("{2}".to_string()),
                Just("{1,2}".to_string()),
            ],
        )
            .prop_map(|(a, q)| format!("{a}{q}"));
        prop::collection::vec(repeated, 1..5).prop_map(|parts| parts.join(""))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The Pike VM agrees with the reference backtracker on match/no-match.
        #[test]
        fn agrees_with_reference(pattern in pattern_strategy(), input in "[abc0-9 ]{0,12}") {
            let engine = Regex::new(&pattern).unwrap().is_match(&input);
            let oracle = reference::is_match(&pattern, &input).unwrap();
            prop_assert_eq!(engine, oracle, "pattern={} input={}", pattern, input);
        }

        /// Compilation never panics on arbitrary input.
        #[test]
        fn compile_total(pattern in "[ -~]{0,40}") {
            let _ = Regex::new(&pattern);
        }

        /// Matching never panics, and reported spans are in bounds & on char
        /// boundaries.
        #[test]
        fn match_total(pattern in pattern_strategy(), input in ".{0,20}") {
            let re = Regex::new(&pattern).unwrap();
            if let Some(m) = re.find(&input) {
                prop_assert!(m.start <= m.end && m.end <= input.len());
                prop_assert!(input.is_char_boundary(m.start) && input.is_char_boundary(m.end));
            }
        }

        /// A literal pattern finds exactly what `str::find` finds.
        #[test]
        fn literal_agrees_with_str_find(needle in "[a-z]{1,5}", hay in "[a-z]{0,20}") {
            let re = Regex::new(&needle).unwrap();
            prop_assert_eq!(re.find(&hay).map(|m| m.start), hay.find(&needle));
        }
    }
}
