//! The `experiments` command-line contract.
//!
//! Every invocation the repository documents (CI workflow, README,
//! EXPERIMENTS, DESIGN, the verify notes) parses to the mode and flag
//! values it means; bad values, typos and flags a mode does not take
//! are refused; and the binary turns a refusal into exit 1 before it
//! simulates anything or creates any directory.

use experiments::cli::{parse, Mode, Value};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// Split a documented shell command line into words, honouring single
/// and double quotes.
fn words(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut word: Option<String> = None;
    let mut quote = None;
    for c in line.chars() {
        match (quote, c) {
            (None, '\'' | '"') => {
                quote = Some(c);
                word.get_or_insert_with(String::new);
            }
            (Some(q), _) if c == q => quote = None,
            (None, ' ') => out.extend(word.take()),
            _ => word.get_or_insert_with(String::new).push(c),
        }
    }
    out.extend(word);
    out
}

fn n(v: u64) -> Value {
    Value::Num(v)
}

fn p(v: &str) -> Value {
    Value::Path(PathBuf::from(v))
}

fn t(v: &str) -> Value {
    Value::Text(v.to_string())
}

const ON: Value = Value::On;

type Case = (
    &'static str,
    Mode,
    Vec<(&'static str, Value)>,
    &'static [&'static str],
);

/// Every distinct documented invocation (shell variables replaced by a
/// sample value), with the mode, flag values and positionals it selects.
#[rustfmt::skip]
fn documented() -> Vec<Case> {
    use Mode::*;
    vec![
        // .github/workflows/ci.yml
        ("--fast --manifest /tmp/manifests fig2", Exhibits,
            vec![("--fast", ON), ("--manifest", p("/tmp/manifests"))], &["fig2"]),
        ("--fast --manifest /tmp/ablations1 ablations", Exhibits,
            vec![("--fast", ON), ("--manifest", p("/tmp/ablations1"))], &["ablations"]),
        ("bench-baseline --seeds 2 --out /tmp/BENCH_ci.json --metrics /tmp/bench-metrics",
            BenchBaseline,
            vec![("--seeds", n(2)), ("--out", p("/tmp/BENCH_ci.json")),
                ("--metrics", p("/tmp/bench-metrics"))], &[]),
        ("bench-baseline --seeds 2 --check-baseline /tmp/BENCH_ci.json", BenchBaseline,
            vec![("--seeds", n(2)), ("--check-baseline", p("/tmp/BENCH_ci.json"))], &[]),
        ("bench-baseline --seeds 1 --resume /tmp/selfcheck --snapshot-every 10000 --selfcheck",
            BenchBaseline,
            vec![("--seeds", n(1)), ("--resume", p("/tmp/selfcheck")),
                ("--snapshot-every", n(10_000)), ("--selfcheck", ON)], &[]),
        ("bench-baseline --seeds 1 --heartbeat-s 1 --profile /tmp/profiles --trace /tmp/profile-traces",
            BenchBaseline,
            vec![("--seeds", n(1)), ("--heartbeat-s", n(1)), ("--profile", p("/tmp/profiles")),
                ("--trace", p("/tmp/profile-traces"))], &[]),
        ("fault-inject --fast --seeds 1 --trials 80 --out /tmp/INJECT_ci.json --check-avf",
            FaultInject,
            vec![("--fast", ON), ("--seeds", n(1)), ("--trials", n(80)),
                ("--out", p("/tmp/INJECT_ci.json")), ("--check-avf", ON)], &[]),
        ("--fast --store /tmp/store fig2 fig8", Exhibits,
            vec![("--fast", ON), ("--store", p("/tmp/store"))], &["fig2", "fig8"]),
        ("fault-inject --fast --seeds 1 --trials 40 --store /tmp/store", FaultInject,
            vec![("--fast", ON), ("--seeds", n(1)), ("--trials", n(40)),
                ("--store", p("/tmp/store"))], &[]),
        ("report --store /tmp/store --list", Report,
            vec![("--store", p("/tmp/store")), ("--list", ON)], &[]),
        ("report --store /tmp/store-doctored --diff 'batch=1,exhibit=fig2' 'batch=2,exhibit=fig2'",
            Report,
            vec![("--store", p("/tmp/store-doctored")), ("--diff", ON)],
            &["batch=1,exhibit=fig2", "batch=2,exhibit=fig2"]),
        ("report --store /tmp/store --html /tmp/report.html --title \"CI report smoke\"", Report,
            vec![("--store", p("/tmp/store")), ("--html", p("/tmp/report.html")),
                ("--title", t("CI report smoke"))], &[]),
        ("chaos --seed 7 --rounds 50 --scratch /tmp/chaos-scratch --out /tmp/chaos-report.json",
            Chaos,
            vec![("--seed", n(7)), ("--rounds", n(50)), ("--scratch", p("/tmp/chaos-scratch")),
                ("--out", p("/tmp/chaos-report.json"))], &[]),
        ("serve-client healthz --dir /tmp/serve-ref", ServeClient,
            vec![("--dir", p("/tmp/serve-ref"))], &["healthz"]),
        ("serve-client submit --dir /tmp/serve-ref --name \"batch1\" --seed \"5\" --steps 600 \
          --payload '{\"delay_us\": 2000}' --priority \"high\"", ServeClient,
            vec![("--dir", p("/tmp/serve-ref")), ("--name", t("batch1")), ("--seed", n(5)),
                ("--steps", n(600)), ("--payload", t("{\"delay_us\": 2000}")),
                ("--priority", t("high"))], &["submit"]),
        ("serve --dir /tmp/serve-ref --serve-workers 2", Serve,
            vec![("--dir", p("/tmp/serve-ref")), ("--serve-workers", n(2))], &[]),
        ("serve-client wait --dir /tmp/serve-ref --timeout-s 300", ServeClient,
            vec![("--dir", p("/tmp/serve-ref")), ("--timeout-s", n(300))], &["wait"]),
        ("serve --dir /tmp/serve-kill --serve-workers 2 --drain", Serve,
            vec![("--dir", p("/tmp/serve-kill")), ("--serve-workers", n(2)), ("--drain", ON)], &[]),
        ("bench-baseline --seeds 2 --jobs 1 --resume /tmp/bench-journal --out /tmp/BENCH_interrupted.json",
            BenchBaseline,
            vec![("--seeds", n(2)), ("--jobs", n(1)), ("--resume", p("/tmp/bench-journal")),
                ("--out", p("/tmp/BENCH_interrupted.json"))], &[]),
        ("bench-baseline --seeds 1 --jobs 1 --selfcheck --resume /tmp/midrun-journal --out /tmp/BENCH_killed.json",
            BenchBaseline,
            vec![("--seeds", n(1)), ("--jobs", n(1)), ("--selfcheck", ON),
                ("--resume", p("/tmp/midrun-journal")), ("--out", p("/tmp/BENCH_killed.json"))], &[]),
        // README.md
        ("", Exhibits, vec![], &[]),
        ("fig5", Exhibits, vec![], &["fig5"]),
        ("--fast all", Exhibits, vec![("--fast", ON)], &["all"]),
        ("--fast --trace out/ fig5", Exhibits,
            vec![("--fast", ON), ("--trace", p("out/"))], &["fig5"]),
        ("--list", Exhibits, vec![("--list", ON)], &[]),
        ("--fast --metrics out/ --manifest out/ fig2 fig8", Exhibits,
            vec![("--fast", ON), ("--metrics", p("out/")), ("--manifest", p("out/"))],
            &["fig2", "fig8"]),
        ("bench-baseline --out BENCH.json", BenchBaseline, vec![("--out", p("BENCH.json"))], &[]),
        ("bench-baseline --check-baseline BENCH.json", BenchBaseline,
            vec![("--check-baseline", p("BENCH.json"))], &[]),
        ("--fast --store runs/ fig2 fig5", Exhibits,
            vec![("--fast", ON), ("--store", p("runs/"))], &["fig2", "fig5"]),
        ("fault-inject --fast --store runs/", FaultInject,
            vec![("--fast", ON), ("--store", p("runs/"))], &[]),
        ("report --store runs/ --diff batch=1 batch=2", Report,
            vec![("--store", p("runs/")), ("--diff", ON)], &["batch=1", "batch=2"]),
        ("report --store runs/ --html report.html", Report,
            vec![("--store", p("runs/")), ("--html", p("report.html"))], &[]),
        ("--fast --profile prof/ --trace traces/ fig5", Exhibits,
            vec![("--fast", ON), ("--profile", p("prof/")), ("--trace", p("traces/"))], &["fig5"]),
        ("bench-baseline --heartbeat-s 5", BenchBaseline, vec![("--heartbeat-s", n(5))], &[]),
        ("fault-inject --fast --out INJECT.json", FaultInject,
            vec![("--fast", ON), ("--out", p("INJECT.json"))], &[]),
        ("fault-inject --fast --check-avf", FaultInject,
            vec![("--fast", ON), ("--check-avf", ON)], &[]),
        ("bench-baseline --resume out/ --out BENCH.json", BenchBaseline,
            vec![("--resume", p("out/")), ("--out", p("BENCH.json"))], &[]),
        ("fault-inject --resume out/ --deadline-s 600", FaultInject,
            vec![("--resume", p("out/")), ("--deadline-s", n(600))], &[]),
        ("bench-baseline --resume out/ --snapshot-every 50000 --selfcheck", BenchBaseline,
            vec![("--resume", p("out/")), ("--snapshot-every", n(50_000)), ("--selfcheck", ON)],
            &[]),
        ("chaos --seed 7 --rounds 50 --out chaos.json", Chaos,
            vec![("--seed", n(7)), ("--rounds", n(50)), ("--out", p("chaos.json"))], &[]),
        ("serve --dir /tmp/campaigns --serve-workers 4", Serve,
            vec![("--dir", p("/tmp/campaigns")), ("--serve-workers", n(4))], &[]),
        ("serve-client submit --dir /tmp/campaigns --name sweep --seed 7 --steps 5000 --priority high",
            ServeClient,
            vec![("--dir", p("/tmp/campaigns")), ("--name", t("sweep")), ("--seed", n(7)),
                ("--steps", n(5000)), ("--priority", t("high"))], &["submit"]),
        ("serve-client status 1 --dir /tmp/campaigns", ServeClient,
            vec![("--dir", p("/tmp/campaigns"))], &["status", "1"]),
        // EXPERIMENTS.md
        ("bench-baseline --seeds 3 --store runs/", BenchBaseline,
            vec![("--seeds", n(3)), ("--store", p("runs/"))], &[]),
        ("chaos --seed 7 --rounds 50 --scratch /tmp/chaos --out /tmp/chaos.json", Chaos,
            vec![("--seed", n(7)), ("--rounds", n(50)), ("--scratch", p("/tmp/chaos")),
                ("--out", p("/tmp/chaos.json"))], &[]),
        ("serve --dir /tmp/campaigns --serve-workers 4 --max-queued 128", Serve,
            vec![("--dir", p("/tmp/campaigns")), ("--serve-workers", n(4)),
                ("--max-queued", n(128))], &[]),
        ("serve-client cancel 1 --dir /tmp/campaigns", ServeClient,
            vec![("--dir", p("/tmp/campaigns"))], &["cancel", "1"]),
        ("serve-client shutdown --dir /tmp/campaigns", ServeClient,
            vec![("--dir", p("/tmp/campaigns"))], &["shutdown"]),
        // DESIGN.md
        ("--csv DIR", Exhibits, vec![("--csv", p("DIR"))], &[]),
        ("fault-inject --check-avf", FaultInject, vec![("--check-avf", ON)], &[]),
        ("report --store DIR --list --diff SEL_A SEL_B", Report,
            vec![("--store", p("DIR")), ("--list", ON), ("--diff", ON)], &["SEL_A", "SEL_B"]),
        ("chaos --seed 3 --rounds 10", Chaos, vec![("--seed", n(3)), ("--rounds", n(10))], &[]),
        // .claude/skills/verify/SKILL.md
        ("--fast --manifest /tmp/m --trace /tmp/tr fig2", Exhibits,
            vec![("--fast", ON), ("--manifest", p("/tmp/m")), ("--trace", p("/tmp/tr"))],
            &["fig2"]),
        ("bogus", Exhibits, vec![], &["bogus"]),
        ("bench-baseline --seeds 1 --jobs 1 --heartbeat-s 1 --resume /tmp/hj --out /tmp/HB.json",
            BenchBaseline,
            vec![("--seeds", n(1)), ("--jobs", n(1)), ("--heartbeat-s", n(1)),
                ("--resume", p("/tmp/hj")), ("--out", p("/tmp/HB.json"))], &[]),
        ("serve --dir /tmp/vs1", Serve, vec![("--dir", p("/tmp/vs1"))], &[]),
        ("serve-client submit --dir /tmp/vs1 --seed \"0\" --steps 400 --payload '{\"delay_us\": 3000}'",
            ServeClient,
            vec![("--dir", p("/tmp/vs1")), ("--seed", n(0)), ("--steps", n(400)),
                ("--payload", t("{\"delay_us\": 3000}"))], &["submit"]),
        ("serve-client wait --dir /tmp/vs1 --timeout-s 60", ServeClient,
            vec![("--dir", p("/tmp/vs1")), ("--timeout-s", n(60))], &["wait"]),
        ("serve-client stats --dir /tmp/vs1", ServeClient, vec![("--dir", p("/tmp/vs1"))],
            &["stats"]),
        ("report --store /tmp/vs --diff \"batch=1,exhibit=fig2\" \"batch=1,exhibit=fig2\"", Report,
            vec![("--store", p("/tmp/vs")), ("--diff", ON)],
            &["batch=1,exhibit=fig2", "batch=1,exhibit=fig2"]),
        ("report --store /tmp/vs --html /tmp/r.html --title t", Report,
            vec![("--store", p("/tmp/vs")), ("--html", p("/tmp/r.html")), ("--title", t("t"))],
            &[]),
        ("fault-inject --fast --seeds 1 --trials 80 --out /tmp/INJECT.json --check-avf",
            FaultInject,
            vec![("--fast", ON), ("--seeds", n(1)), ("--trials", n(80)),
                ("--out", p("/tmp/INJECT.json")), ("--check-avf", ON)], &[]),
    ]
}

#[test]
fn every_documented_invocation_parses_to_its_mode_and_values() {
    for (line, mode, values, positionals) in documented() {
        let cli = parse(&words(line)).unwrap_or_else(|e| panic!("{line:?} rejected: {e}"));
        assert_eq!(cli.mode, mode, "{line:?}");
        assert_eq!(cli.values, values, "{line:?}");
        assert_eq!(cli.positionals, positionals, "{line:?}");
    }
}

#[test]
fn absent_flags_read_as_none() {
    let cli = parse(&["bench-baseline"]).unwrap();
    assert_eq!(cli.num("--jobs"), None);
    assert_eq!(cli.path("--out"), None);
    assert!(!cli.switch("--selfcheck"));
}

/// Refused command lines and what the refusal must name.
#[test]
fn bad_values_typos_and_misapplied_flags_are_refused() {
    let mut cases: Vec<(Vec<String>, Vec<String>)> = vec![];
    let mut refuse = |line: &str, needles: &[&str]| {
        let needles = needles.iter().map(|s| s.to_string()).collect();
        cases.push((words(line), needles));
    };
    refuse("--fsat table3", &["unknown flag --fsat"]);
    refuse(
        "fault-inject --fast --check-afv",
        &["unknown flag --check-afv"],
    );
    refuse(
        "fault-inject --profile D --manifest D",
        &["fault-inject does not take --profile"],
    );
    refuse("chaos --trace D", &["chaos does not take --trace"]);
    refuse("--manifest --fast fig2", &["--manifest", "\"--fast\""]);
    refuse(
        "bench-baseline --fast",
        &["bench-baseline does not take --fast"],
    );
    refuse("--seeds 3 fig2", &["experiments does not take --seeds"]);
    refuse("--fast --fast fig2", &["--fast given twice"]);
    refuse("--trace", &["--trace wants a value, got nothing"]);
    refuse(
        "bench-baseline extra",
        &["bench-baseline takes no positional arguments"],
    );
    refuse("serve-client status 1 2", &["serve-client takes VERB [ID]"]);
    refuse("report --store S a b c", &["report takes [SEL_A [SEL_B]]"]);
    refuse("report --list", &["report wants --store"]);
    refuse("serve --drain", &["serve wants --dir"]);
    refuse("chaos --seed -1", &["--seed", "unsigned", "\"-1\""]);
    refuse("bench-baseline --jobs 0", &["--jobs", "positive", "got 0"]);
    refuse(
        "bench-baseline --deadline-s 0",
        &["--deadline-s", "positive"],
    );
    for bad in ["-3", "abc", "1.5", "", " 7", "0x10", "18446744073709551616"] {
        refuse(
            &format!("bench-baseline --jobs '{bad}'"),
            &["--jobs", &format!("{bad:?}")],
        );
    }
    for bad in ["0", "-1", "2.5", "soon"] {
        refuse(
            &format!("bench-baseline --heartbeat-s {bad}"),
            &["--heartbeat-s"],
        );
    }
    refuse("--profile '' --fast fig2", &["--profile", "empty"]);
    refuse("--profile --trace fig2", &["--profile", "--trace"]);
    for (args, needles) in cases {
        let err = parse(&args).expect_err(&format!("{args:?} must be refused"));
        for needle in needles {
            assert!(err.contains(&needle), "{args:?}: {err:?} lacks {needle:?}");
        }
    }
    // The accepted neighbours of those values.
    let ok = parse(&words("--profile out/profiles --jobs 1 fig2")).unwrap();
    assert_eq!(ok.path("--profile"), Some(PathBuf::from("out/profiles")));
    assert_eq!(ok.num("--jobs"), Some(1));
    assert_eq!(
        parse(&words("chaos --seed 0")).unwrap().num("--seed"),
        Some(0)
    );
}

#[test]
fn the_binary_refuses_before_any_work_and_creates_nothing() {
    let scratch =
        std::env::temp_dir().join(format!("experiments-cli-contract-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    for line in [
        "--fsat table3",
        "fault-inject --fast --seeds 1 --trials 8 --check-afv",
        "fault-inject --profile D",
        "chaos --trace D",
        "--manifest --fast fig2",
    ] {
        let t0 = Instant::now();
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(words(line))
            .current_dir(&scratch)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{line:?}: {stderr}");
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "{line:?} took {:?}",
            t0.elapsed()
        );
        assert!(
            stderr.contains("usage:"),
            "{line:?} printed no usage: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{line:?} started work: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let created: Vec<_> = std::fs::read_dir(&scratch).unwrap().collect();
        assert!(created.is_empty(), "{line:?} created {created:?}");
    }
    std::fs::remove_dir_all(&scratch).unwrap();
}
