//! Integration tests for the `beacongnn` command-line tool.

use std::process::Command;

fn beacongnn() -> Command {
    Command::new(env!("CARGO_BIN_EXE_beacongnn"))
}

#[test]
fn convert_then_inspect_roundtrip() {
    let dir = std::env::temp_dir().join(format!("beacongnn-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dgr = dir.join("ogbn.dgr");

    let out = beacongnn()
        .args(["convert", "--dataset", "ogbn", "--nodes", "800", "--out"])
        .arg(&dgr)
        .output()
        .expect("convert runs");
    assert!(
        out.status.success(),
        "convert failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dgr.exists());

    let out = beacongnn()
        .arg("inspect")
        .arg(&dgr)
        .output()
        .expect("inspect runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("800"), "node count shown: {stdout}");
    assert!(stdout.contains("passes"), "validation reported: {stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inspect_rejects_hostile_node_counts() {
    // 16-byte DGR1 headers (magic, page size 4096, node count) claiming
    // a 4 TiB directory and one past any allocation.
    for n in [1u64 << 40, 1u64 << 62] {
        let path = std::env::temp_dir().join(format!(
            "beacongnn-cli-{}-nodes-{n:x}.dgr",
            std::process::id()
        ));
        let mut bytes = b"DGR1".to_vec();
        bytes.extend_from_slice(&4096u32.to_le_bytes());
        bytes.extend_from_slice(&n.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let out = beacongnn()
            .arg("inspect")
            .arg(&path)
            .output()
            .expect("inspect runs");
        std::fs::remove_file(&path).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{n}: {stderr}");
        assert!(stderr.contains("i/o"), "{n}: {stderr}");
        assert!(!stderr.contains("panicked"), "{n}: {stderr}");
    }
}

/// A DGR1 image with 4 KB pages: raw directory entries, build
/// statistics counting `primary_pages` primary pages and `used_bytes`
/// used bytes, and one zeroed page at each of `page_indices`.
fn dgr1(directory: &[u32], primary_pages: u64, used_bytes: u64, page_indices: &[u64]) -> Vec<u8> {
    let mut bytes = b"DGR1".to_vec();
    bytes.extend_from_slice(&4096u32.to_le_bytes());
    bytes.extend_from_slice(&(directory.len() as u64).to_le_bytes());
    for raw in directory {
        bytes.extend_from_slice(&raw.to_le_bytes());
    }
    for stat in [primary_pages, 0, 0, used_bytes, 0] {
        bytes.extend_from_slice(&stat.to_le_bytes());
    }
    bytes.extend_from_slice(&(page_indices.len() as u64).to_le_bytes());
    for idx in page_indices {
        bytes.extend_from_slice(&idx.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 4096]);
    }
    bytes
}

/// Runs `inspect` on `bytes` saved to a temporary file.
fn inspect_bytes(name: &str, bytes: &[u8]) -> std::process::Output {
    let path =
        std::env::temp_dir().join(format!("beacongnn-cli-{}-{name}.dgr", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let out = beacongnn()
        .arg("inspect")
        .arg(&path)
        .output()
        .expect("inspect runs");
    std::fs::remove_file(&path).ok();
    out
}

#[test]
fn inspect_rejects_hostile_page_indices() {
    // The last 4 KB page index. A lone page there behind an empty
    // directory and zeroed statistics is a 4,168-byte file; a page at 0
    // plus one there would need a 2^28-slot table for 8 KB of pages.
    let last = (1u64 << 28) - 1;
    let lone = dgr1(&[], 0, 0, &[last]);
    assert_eq!(lone.len(), 4_168);
    for (name, bytes, want) in [
        ("lone-page", lone, "build statistics count 0"),
        ("sparse-pages", dgr1(&[], 2, 0, &[0, last]), "out of range"),
    ] {
        let out = inspect_bytes(name, &bytes);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains(want), "{name}: {stderr}");
    }
}

#[test]
fn inspect_rejects_dangling_directory_entries() {
    // One node whose entry points at page 5, slot 0 (4 KB pages keep 4
    // slot bits), in images that wrote no page or only page 0. With no
    // page written, the utilization row divides by zero stored bytes.
    let entry = 5u32 << 4;
    for (name, bytes) in [
        ("no-pages-nan", dgr1(&[entry], 0, 0, &[])),
        ("no-pages-inf", dgr1(&[entry], 0, 64, &[])),
        ("page-zero-only", dgr1(&[entry], 1, 64, &[0])),
    ] {
        let out = inspect_bytes(name, &bytes);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stdout}{stderr}");
        assert!(stderr.contains("unwritten"), "{name}: {stderr}");
        assert!(
            !stdout.contains("NaN") && !stdout.contains("inf"),
            "{name}: {stdout}"
        );
    }
}

#[test]
fn run_reports_metrics() {
    let out = beacongnn()
        .args([
            "run",
            "--dataset",
            "amazon",
            "--nodes",
            "1000",
            "--batch",
            "8",
            "--batches",
            "1",
            "--platform",
            "BG-2",
        ])
        .output()
        .expect("run executes");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("throughput"));
    assert!(stdout.contains("BG-2"));
}

#[test]
fn compare_lists_all_platforms() {
    let out = beacongnn()
        .args([
            "compare",
            "--dataset",
            "movielens",
            "--nodes",
            "800",
            "--batch",
            "8",
        ])
        .output()
        .expect("compare executes");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for p in [
        "CC",
        "SmartSage",
        "GList",
        "BG-1",
        "BG-DG",
        "BG-SP",
        "BG-DGSP",
        "BG-2",
    ] {
        assert!(stdout.contains(p), "missing {p} in: {stdout}");
    }
    // Throughput is normalized to CC, so CC's own row reads 1.00x.
    let cc = stdout
        .lines()
        .find(|l| l.starts_with("CC "))
        .expect("CC row");
    assert!(cc.contains("1.00x"), "{cc}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = beacongnn().arg("frobnicate").output().expect("executes");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn missing_dataset_flag_is_an_error() {
    let out = beacongnn()
        .args(["run", "--nodes", "100"])
        .output()
        .expect("executes");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--dataset"));
}

#[test]
fn degenerate_sizes_are_usage_errors() {
    for args in [
        ["run", "--dataset", "amazon", "--nodes", "1"],
        ["run", "--dataset", "amazon", "--batch", "0"],
    ] {
        let out = beacongnn().args(args).output().expect("executes");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("at least 2 nodes"), "{args:?}: {stderr}");
    }
}

/// A `beacongnn run` over a small workload, writing its trace to `path`.
fn run_with_trace(path: &std::path::Path) -> std::process::Output {
    beacongnn()
        .args([
            "run",
            "--dataset",
            "amazon",
            "--nodes",
            "1000",
            "--batch",
            "8",
            "--batches",
            "1",
            "--trace",
        ])
        .arg(path)
        .output()
        .expect("run executes")
}

#[test]
fn csv_trace_path_is_a_usage_error() {
    let path = std::env::temp_dir().join(format!("beacongnn-cli-{}-trace.csv", std::process::id()));
    let out = run_with_trace(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("JSON"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs");
    assert!(!path.exists(), "nothing is written");
}

#[test]
fn trace_writes_chrome_trace_json() {
    let path =
        std::env::temp_dir().join(format!("beacongnn-cli-{}-trace.json", std::process::id()));
    let out = run_with_trace(&path);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("trace written");
    assert!(json.contains("\"traceEvents\""), "not a Chrome trace");
    std::fs::remove_file(&path).ok();
}
