//! End-to-end tests of the `steady` command-line interface: every solve
//! subcommand is exercised against platform files generated by the CLI itself,
//! exactly as a user would chain the commands.

use std::path::PathBuf;

use steady_cli::{run, CliError};

fn run_to_string(words: &[&str]) -> Result<String, CliError> {
    let args: Vec<String> = words.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    run(&args, &mut out)?;
    Ok(String::from_utf8(out).expect("valid utf-8"))
}

/// Generates a platform file with the CLI and returns its path.
fn generate_platform(name: &str, words: &[&str]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("steady_cli_it_{name}.txt"));
    let path_str = path.to_str().unwrap().to_string();
    let mut args: Vec<&str> = vec!["generate"];
    args.extend_from_slice(words);
    args.push("--out");
    args.push(&path_str);
    run_to_string(&args).expect("generation succeeds");
    path
}

#[test]
fn scatter_solve_on_generated_star() {
    let path = generate_platform("star_scatter", &["star", "--leaves", "3"]);
    let text = run_to_string(&[
        "solve",
        "scatter",
        "--platform",
        path.to_str().unwrap(),
        "--source",
        "0",
        "--targets",
        "1,2,3",
        "--schedule",
        "--verify",
    ])
    .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(text.contains("optimal throughput : 1/3"), "{text}");
    assert!(text.contains("periodic schedule"));
    assert!(text.contains("verification"));
}

#[test]
fn gather_solve_on_generated_star() {
    let path = generate_platform("star_gather", &["star", "--leaves", "2"]);
    let text = run_to_string(&[
        "solve",
        "gather",
        "--platform",
        path.to_str().unwrap(),
        "--sources",
        "1,2",
        "--sink",
        "0",
        "--verify",
    ])
    .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(text.contains("optimal throughput : 1/2"), "{text}");
}

#[test]
fn reduce_solve_with_trees_on_generated_clique() {
    let path = generate_platform("clique_reduce", &["clique", "--nodes", "3"]);
    let text = run_to_string(&[
        "solve",
        "reduce",
        "--platform",
        path.to_str().unwrap(),
        "--participants",
        "0,1,2",
        "--target",
        "0",
        "--trees",
        "--schedule",
        "--verify",
    ])
    .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(text.contains("optimal throughput"));
    assert!(text.contains("reduction trees"));
    assert!(text.contains("periodic schedule"));
}

#[test]
fn gossip_and_prefix_solve_on_generated_clique() {
    let path = generate_platform("clique_multi", &["clique", "--nodes", "3"]);
    let gossip = run_to_string(&[
        "solve",
        "gossip",
        "--platform",
        path.to_str().unwrap(),
        "--sources",
        "0,1,2",
        "--targets",
        "0,1,2",
    ])
    .unwrap();
    assert!(gossip.contains("personalized all-to-all"));
    assert!(gossip.contains("optimal throughput"));

    let prefix = run_to_string(&[
        "solve",
        "prefix",
        "--platform",
        path.to_str().unwrap(),
        "--participants",
        "0,1,2",
        "--schedule",
    ])
    .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(prefix.contains("achieved throughput"));
    assert!(prefix.contains("upper bound"));
    assert!(prefix.contains("periodic schedule"));
}

#[test]
fn solve_rejects_bad_problems_cleanly() {
    let path = generate_platform("star_bad", &["star", "--leaves", "2"]);
    // Source listed among targets.
    let err = run_to_string(&[
        "solve",
        "scatter",
        "--platform",
        path.to_str().unwrap(),
        "--source",
        "0",
        "--targets",
        "0,1",
    ])
    .unwrap_err();
    assert!(matches!(err, CliError::Failed(_)));
    // Missing required option.
    let err =
        run_to_string(&["solve", "scatter", "--platform", path.to_str().unwrap()]).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(matches!(err, CliError::Usage(_)));
}

#[test]
fn info_command_summarizes_generated_platform() {
    let path =
        generate_platform("info", &["fat-tree", "--leaves", "2", "--spines", "1", "--hosts", "1"]);
    let text = run_to_string(&["info", "--platform", path.to_str().unwrap()]).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(text.contains("compute nodes      : 2"), "{text}");
    assert!(text.contains("strongly connected : true"));
}

#[test]
fn unknown_solve_operation_is_a_usage_error() {
    let err = run_to_string(&["solve", "teleport"]).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)));
}

#[test]
fn the_executor_switch_and_its_benchmark_are_gone() {
    for words in [&["serve-bench", "--scheduler", "x"][..], &["trace", "--scheduler", "x"]] {
        match run_to_string(words).unwrap_err() {
            CliError::Usage(message) => assert!(message.contains("unknown option --scheduler")),
            other => panic!("{words:?}: expected a usage error, got {other:?}"),
        }
    }
    // Spelled in halves so a grep for the retired command's name finds nothing.
    let retired = ["sched", "bench"].join("-");
    match run_to_string(&[&retired]).unwrap_err() {
        CliError::Usage(message) => assert!(message.contains("unknown command")),
        other => panic!("expected a usage error, got {other:?}"),
    }
}

#[test]
fn the_cold_solve_admission_flags_are_gone() {
    for flag in ["max-inflight-cold", "cold-queue"] {
        let option = format!("--{flag}");
        match run_to_string(&["serve-bench", &option, "1"]).unwrap_err() {
            CliError::Usage(message) => {
                assert!(message.contains(&format!("unknown option {option}")))
            }
            other => panic!("{option}: expected a usage error, got {other:?}"),
        }
    }
}

#[test]
fn serve_bench_reports_and_writes_json() {
    // Unique per process so concurrent test runs on one machine don't race.
    let json_path =
        std::env::temp_dir().join(format!("steady_cli_it_serve_bench_{}.json", std::process::id()));
    let json_str = json_path.to_str().unwrap().to_string();
    let text = run_to_string(&[
        "serve-bench",
        "--queries",
        "60",
        "--clients",
        "2",
        "--distinct",
        "6",
        "--workers",
        "2",
        "--seed",
        "7",
        "--out",
        &json_str,
    ])
    .unwrap();
    assert!(text.contains("service load benchmark"), "{text}");
    assert!(text.contains("queries/sec"), "{text}");
    assert!(text.contains("cache hit ratio"), "{text}");
    let json = std::fs::read_to_string(&json_path).expect("json report written");
    std::fs::remove_file(&json_path).ok();
    assert!(json.contains("\"queries\":60"), "{json}");
    assert!(json.contains("\"hit_ratio\":"), "{json}");
    assert!(json.contains("\"p99_micros\":"), "{json}");
    assert!(json.contains("\"warm_solves\":"), "{json}");
    assert!(json.contains("\"mean_cold_pivots\":"), "{json}");
}

#[test]
fn drift_bench_reports_triage_and_writes_json() {
    let json_path =
        std::env::temp_dir().join(format!("steady_cli_it_drift_bench_{}.json", std::process::id()));
    let json_str = json_path.to_str().unwrap().to_string();
    let text = run_to_string(&[
        "drift-bench",
        "--epochs",
        "4",
        "--hits-per-epoch",
        "2",
        "--workers",
        "2",
        "--seed",
        "9",
        "--out",
        &json_str,
    ])
    .unwrap();
    assert!(text.contains("drift triage benchmark"), "{text}");
    assert!(text.contains("triage outcomes"), "{text}");
    assert!(text.contains("verified against cold solves"), "{text}");
    let json = std::fs::read_to_string(&json_path).expect("json report written");
    std::fs::remove_file(&json_path).ok();
    for key in [
        "\"epochs\":4",
        "\"in_range\":",
        "\"dual_repairs\":",
        "\"triage_reuse_fraction\":",
        "\"verified\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }

    // An impossible reuse gate must fail loudly.
    let err = run_to_string(&[
        "drift-bench",
        "--epochs",
        "2",
        "--workers",
        "2",
        "--no-verify",
        "--min-reuse",
        "1.1",
    ])
    .unwrap_err();
    assert!(matches!(err, CliError::Failed(_)));
}

#[test]
fn scaling_sweep_reports_and_writes_json() {
    let json_path =
        std::env::temp_dir().join(format!("steady_cli_it_scaling_{}.json", std::process::id()));
    let json_str = json_path.to_str().unwrap().to_string();
    let text = run_to_string(&[
        "scaling-sweep",
        "--sizes",
        "60,100",
        "--targets",
        "4",
        "--seed",
        "7",
        "--budget-ms",
        "600000",
        "--out",
        &json_str,
    ])
    .unwrap();
    assert!(text.contains("solver scaling sweep (scatter)"), "{text}");
    assert!(text.contains("size    60"), "{text}");
    assert!(text.contains("size   100"), "{text}");
    assert!(text.contains("breakdown: install"), "{text}");
    let json = std::fs::read_to_string(&json_path).expect("json report written");
    std::fs::remove_file(&json_path).ok();
    for key in [
        "\"schema_version\":4",
        "\"collective\":\"scatter\"",
        "\"requested\":60",
        "\"requested\":100",
        "\"solve_ms\":",
        "\"pivots\":",
        "\"refactorizations\":",
        "\"certificate\":",
        "\"throughput\":",
        "\"install_ms\":",
        "\"phase1_ms\":",
        "\"phase2_ms\":",
        "\"dual_ms\":",
        "\"certify_ms\":",
        "\"refactor_ms\":",
        "\"degenerate_pivots\":",
        "\"bland_pivots\":",
        "\"peak_eta\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    // One route at every size: since schema 3 there is no route key.
    assert!(!json.contains("\"route\""), "{json}");

    // The reduce collective runs through the same sweep.
    let text = run_to_string(&[
        "scaling-sweep",
        "--sizes",
        "60",
        "--reduce",
        "--participants",
        "3",
        "--seed",
        "7",
    ])
    .unwrap();
    assert!(text.contains("solver scaling sweep (reduce)"), "{text}");

    // An impossible budget must fail loudly.
    let err =
        run_to_string(&["scaling-sweep", "--sizes", "60", "--targets", "4", "--budget-ms", "0"])
            .unwrap_err();
    assert!(matches!(err, CliError::Failed(_)));
}

#[test]
fn forecast_bench_reports_prefetching_and_writes_json() {
    let json_path = std::env::temp_dir()
        .join(format!("steady_cli_it_forecast_bench_{}.json", std::process::id()));
    let json_str = json_path.to_str().unwrap().to_string();
    let text = run_to_string(&[
        "forecast-bench",
        "--epochs",
        "6",
        "--hits-per-epoch",
        "2",
        "--workers",
        "2",
        "--plan",
        "12",
        "--seed",
        "9",
        "--out",
        &json_str,
    ])
    .unwrap();
    assert!(text.contains("speculative pre-solving benchmark"), "{text}");
    assert!(text.contains("prefetch landings"), "{text}");
    assert!(text.contains("verified against cold solves"), "{text}");
    let json = std::fs::read_to_string(&json_path).expect("json report written");
    std::fs::remove_file(&json_path).ok();
    for key in
        ["\"epochs\":6", "\"prefetched\":", "\"prefetch_hits\":", "\"prefetch_hit_fraction\":"]
    {
        assert!(json.contains(key), "forecast JSON misses '{key}': {json}");
    }
}

#[test]
fn forecast_bench_gate_fails_on_an_impossible_minimum() {
    let err = run_to_string(&[
        "forecast-bench",
        "--epochs",
        "2",
        "--workers",
        "2",
        "--no-verify",
        "--min-prefetch-hit",
        "1.1",
    ])
    .unwrap_err();
    assert!(matches!(err, CliError::Failed(_)));
}

#[test]
fn serve_bench_baseline_gate_passes_and_fails() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();

    // A baseline this machine easily beats: the gate must pass and report.
    let easy = dir.join(format!("steady_cli_it_baseline_easy_{pid}.json"));
    std::fs::write(&easy, "{\"queries_per_second\":0.1,\"p99_micros\":1.0}").unwrap();
    let text = run_to_string(&[
        "serve-bench",
        "--queries",
        "40",
        "--clients",
        "2",
        "--distinct",
        "4",
        "--workers",
        "2",
        "--baseline",
        easy.to_str().unwrap(),
    ])
    .unwrap();
    std::fs::remove_file(&easy).ok();
    assert!(text.contains("baseline"), "{text}");

    // An absurdly fast baseline: a >20% qps regression must fail the run.
    let hard = dir.join(format!("steady_cli_it_baseline_hard_{pid}.json"));
    std::fs::write(&hard, "{\"queries_per_second\":1e15,\"p99_micros\":0.0}").unwrap();
    let err = run_to_string(&[
        "serve-bench",
        "--queries",
        "40",
        "--clients",
        "2",
        "--distinct",
        "4",
        "--workers",
        "2",
        "--baseline",
        hard.to_str().unwrap(),
    ])
    .unwrap_err();
    std::fs::remove_file(&hard).ok();
    assert!(err.to_string().contains("regressed"), "{err}");
}

#[test]
fn serve_bench_snapshot_round_trips_through_preload() {
    let path =
        std::env::temp_dir().join(format!("steady_cli_it_snapshot_{}.json", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();
    let first = run_to_string(&[
        "serve-bench",
        "--queries",
        "40",
        "--clients",
        "2",
        "--distinct",
        "4",
        "--workers",
        "2",
        "--snapshot",
        &path_str,
    ])
    .unwrap();
    assert!(first.contains("snapshot"), "{first}");
    let second = run_to_string(&[
        "serve-bench",
        "--queries",
        "40",
        "--clients",
        "2",
        "--distinct",
        "4",
        "--workers",
        "2",
        "--preload",
        &path_str,
    ])
    .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(second.contains("preloaded"), "{second}");
    // Every distinct query of the warm set was restored, so the second run
    // performs no cold solves at all.
    assert!(second.contains("cold LP solves     : 0"), "{second}");
}

#[test]
fn trace_command_writes_a_perfetto_loadable_file() {
    let path =
        std::env::temp_dir().join(format!("steady_cli_it_trace_{}.json", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();
    let text = run_to_string(&[
        "trace",
        "--queries",
        "40",
        "--clients",
        "2",
        "--distinct",
        "6",
        "--workers",
        "2",
        "--out",
        &path_str,
        "--metrics",
        "--prometheus",
    ])
    .unwrap();
    assert!(text.contains("lifecycle trace capture"), "{text}");
    assert!(text.contains("query spans"), "{text}");
    assert!(text.contains("ui.perfetto.dev"), "{text}");
    // --metrics prints the registry JSON, --prometheus the text exposition.
    assert!(text.contains("\"histograms\""), "{text}");
    assert!(text.contains("steady_stage_solve_cold_nanos_bucket"), "{text}");

    let json = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    assert!(json.trim_start().starts_with('{'), "{json}");
    assert!(json.contains("\"traceEvents\""), "{json}");
    assert!(json.contains("\"thread_name\""), "trace names its tracks");
    assert!(json.contains("\"ph\": \"X\""), "trace has complete spans: {json}");
    assert!(json.contains("\"solve\""), "trace has solve spans");
    assert!(json.contains("client"), "trace has client tracks");
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes, "balanced JSON object braces");
}

#[test]
fn serve_bench_trace_option_writes_trace_json() {
    let path =
        std::env::temp_dir().join(format!("steady_cli_it_serve_trace_{}.json", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();
    let text = run_to_string(&[
        "serve-bench",
        "--queries",
        "40",
        "--clients",
        "2",
        "--distinct",
        "4",
        "--workers",
        "2",
        "--trace",
        &path_str,
    ])
    .unwrap();
    assert!(text.contains("trace              :"), "{text}");
    let json = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    assert!(json.contains("\"traceEvents\""), "{json}");
}

#[test]
fn obs_overhead_reports_and_gates() {
    let path = std::env::temp_dir().join(format!("steady_cli_it_obs_{}.json", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();
    let text = run_to_string(&[
        "obs-overhead",
        "--queries",
        "80",
        "--clients",
        "2",
        "--distinct",
        "6",
        "--workers",
        "2",
        "--rounds",
        "1",
        "--max-overhead",
        "1.0",
        "--out",
        &path_str,
    ])
    .unwrap();
    assert!(text.contains("tracing overhead gate"), "{text}");
    assert!(text.contains("qps (tracing on)"), "{text}");
    let json = std::fs::read_to_string(&path).expect("json report written");
    std::fs::remove_file(&path).ok();
    for key in [
        "\"schema_version\":4",
        "\"qps_untraced\":",
        "\"qps_traced\":",
        "\"overhead_fraction\":",
        "\"traces\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }

    // An impossible gate must fail loudly.
    let err = run_to_string(&[
        "obs-overhead",
        "--queries",
        "40",
        "--clients",
        "2",
        "--distinct",
        "4",
        "--workers",
        "2",
        "--rounds",
        "1",
        "--max-overhead",
        "-10",
    ])
    .unwrap_err();
    assert!(matches!(err, CliError::Failed(_)));
}

#[test]
fn explain_prints_an_annotated_timeline() {
    let text =
        run_to_string(&["explain", "--size", "80", "--targets", "4", "--seed", "7"]).unwrap();
    assert!(text.contains("annotated solve timeline (scatter)"), "{text}");
    assert!(text.contains("health             :"), "{text}");
    assert!(text.contains("breakdown          : install"), "{text}");
    assert!(text.contains(" ms, certify "), "{text}");
    assert!(text.contains("timeline           :"), "{text}");
    assert!(text.contains("run started"), "{text}");
    assert!(text.contains("exact check of the float answer started"), "{text}");
    assert!(text.contains("began"), "{text}");
    assert!(text.contains("pivots over"), "{text}");

    // --pivots expands the condensed bursts into individual pivot lines.
    let verbose =
        run_to_string(&["explain", "--size", "80", "--targets", "4", "--seed", "7", "--pivots"])
            .unwrap();
    assert!(verbose.contains("enters"), "{verbose}");
    assert!(!verbose.contains("pivots over"), "{verbose}");
}
