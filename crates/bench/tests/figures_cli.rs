//! The `figures` command line: malformed flags are usage errors, and
//! `--json` writes pretty JSON with sorted object keys.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("run figures")
}

#[test]
fn bad_flag_values_print_usage_and_exit_2() {
    let telemetry = std::env::temp_dir().join(format!("figures-cli-{}.tel", std::process::id()));
    let telemetry = telemetry.to_str().unwrap();
    for args in [
        &["fig2", "--scale", "x"][..],
        &["fig2", "--scale", "-1"],
        &["fig2", "--scale", "0"],
        &["fig2", "--seed"],
        &["fig2", "--json"],
        &["fig2", "--telemetry"],
        &["fig4", "--telemetry", telemetry],
        &["no-such-experiment"],
    ] {
        let out = figures(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: figures"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    assert!(
        !std::path::Path::new(telemetry).exists(),
        "a rejected --telemetry must write nothing"
    );
}

#[test]
fn help_exits_0() {
    let out = figures(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: figures"));
}

/// Every object's keys, in the order printed, from pretty JSON with one
/// field per line.
fn object_keys(json: &str) -> Vec<Vec<String>> {
    let (mut open, mut done) = (Vec::<Vec<String>>::new(), Vec::new());
    for line in json.lines().map(str::trim) {
        if let Some(rest) = line.strip_prefix('"') {
            let key = &rest[..rest.find("\": ").expect("a \"key\": value line")];
            open.last_mut()
                .expect("key inside an object")
                .push(key.into());
        }
        if line.ends_with('{') {
            open.push(Vec::new());
        } else if line.starts_with('}') {
            done.push(open.pop().expect("balanced braces"));
        }
    }
    assert!(open.is_empty(), "unclosed object");
    done
}

#[test]
fn json_output_has_sorted_keys() {
    let path = std::env::temp_dir().join(format!("figures-cli-{}.json", std::process::id()));
    let out = figures(&["fig2", "--seed", "3", "--json", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("json written");
    std::fs::remove_file(&path).unwrap();

    assert!(json.starts_with("{\n  \"experiments\": {\n    \"fig2\": [\n"));
    assert!(json.ends_with("\n  \"scale\": 4000,\n  \"seed\": 3\n}"));
    let objects = object_keys(&json);
    // Ten packet sizes, the experiments map, the document.
    assert_eq!(objects.len(), 12);
    for keys in &objects {
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "unsorted: {keys:?}");
    }
    assert_eq!(
        objects[0],
        ["measured_gbps", "packet_bytes", "utilisation"],
        "a fig2 row"
    );
}
