//! dep-hygiene: a minimal Cargo manifest checker.
//!
//! The build environment is offline; every dependency must resolve to a
//! local `path` (directly or via `workspace = true`, with the workspace
//! table itself using paths). Registry versions and `git` sources would
//! silently reach for the network, and a short denylist of net-facing
//! crates guards against accidentally vendoring a client stack. Each
//! workspace crate must also opt in to the workspace lints, which is how
//! rustc and clippy enforce docs, visibility and explained suppressions.

use crate::rules::{Finding, RuleId};

/// Crates that imply network I/O at runtime; forbidden even when vendored.
const NET_FACING: [&str; 14] = [
    "reqwest",
    "hyper",
    "ureq",
    "curl",
    "isahc",
    "surf",
    "tokio",
    "async-std",
    "actix-web",
    "warp",
    "axum",
    "tonic",
    "quinn",
    "libp2p",
];

/// Sections whose entries are dependency specs.
fn is_dep_section(name: &str) -> bool {
    let name = name.trim();
    name == "dependencies"
        || name == "dev-dependencies"
        || name == "build-dependencies"
        || name == "workspace.dependencies"
        || (name.starts_with("target.") && name.ends_with("dependencies"))
}

/// Checks one `Cargo.toml`, returning dep-hygiene findings.
pub fn check_manifest(text: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut section = String::new();
    // `[dependencies.foo]`-style sections accumulate keys until the next
    // header; `(header_line, name, keys)` is validated on section close.
    let mut pending: Option<(usize, String, Vec<String>)> = None;

    let close_pending = |pending: &mut Option<(usize, String, Vec<String>)>,
                         out: &mut Vec<Finding>| {
        if let Some((line, name, keys)) = pending.take() {
            check_dep(&name, &keys.join(" "), line, out);
        }
    };

    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') && line.ends_with(']') {
            close_pending(&mut pending, &mut out);
            section = line[1..line.len() - 1].trim().to_string();
            // `[dependencies.foo]` opens a single-dep section.
            for deps in ["dependencies.", "dev-dependencies.", "build-dependencies."] {
                if let Some(name) = section.strip_prefix(deps) {
                    pending = Some((i + 1, name.trim().to_string(), Vec::new()));
                }
            }
            continue;
        }
        if let Some((_, _, keys)) = pending.as_mut() {
            keys.push(line.to_string());
            continue;
        }
        if !is_dep_section(&section) {
            continue;
        }
        let Some((name, spec)) = line.split_once('=') else {
            continue;
        };
        check_dep(name.trim(), spec.trim(), i + 1, &mut out);
    }
    close_pending(&mut pending, &mut out);
    out
}

/// A finding when a `crates/*` manifest lacks `[lints]` with
/// `workspace = true`: without it rustc's `missing_docs` and
/// `unreachable_pub` and clippy's `allow_attributes` skip the crate.
pub fn missing_workspace_lints(text: &str) -> Option<Finding> {
    let mut section = "";
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = header.trim();
        } else if section == "lints"
            && line
                .split_once('=')
                .is_some_and(|(key, value)| key.trim() == "workspace" && value.trim() == "true")
        {
            return None;
        }
    }
    Some(Finding {
        rule: RuleId::DepHygiene,
        line: 1,
        message: "crate does not opt in to the workspace lints".into(),
        help: "add `[lints]` with `workspace = true`, so rustc checks its docs and \
               visibility and clippy its suppressions"
            .into(),
    })
}

/// Validates one dependency spec (`name = spec` or accumulated table keys).
fn check_dep(name: &str, spec: &str, line: usize, out: &mut Vec<Finding>) {
    let name = name.trim_matches('"');
    if NET_FACING.contains(&name) {
        out.push(Finding {
            rule: RuleId::DepHygiene,
            line,
            message: format!("dependency `{name}` is a net-facing crate"),
            help: "the simulator must stay offline and deterministic; remove it".into(),
        });
        return;
    }
    if spec.contains("git") && spec.contains('=') && spec.contains("git =") {
        out.push(Finding {
            rule: RuleId::DepHygiene,
            line,
            message: format!("dependency `{name}` uses a git source"),
            help: "vendor the crate under vendor/ and use a path dependency".into(),
        });
        return;
    }
    let vendored =
        spec.contains("path") && spec.contains("path =") || spec.contains("workspace = true");
    if !vendored {
        out.push(Finding {
            rule: RuleId::DepHygiene,
            line,
            message: format!("dependency `{name}` resolves to a registry version"),
            help: "the build is offline: use `workspace = true` or a vendored \
                   `path = …` dependency"
                .into(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_path_and_workspace_deps() {
        let toml = "[dependencies]\n\
                    dg-pdn = { workspace = true }\n\
                    serde = { path = \"../vendor/serde\", features = [\"derive\"] }\n\
                    [dev-dependencies]\n\
                    proptest = { workspace = true }\n";
        assert!(check_manifest(toml).is_empty());
    }

    #[test]
    fn rejects_registry_versions_and_git() {
        let toml = "[dependencies]\n\
                    rand = \"0.8\"\n\
                    foo = { version = \"1\", features = [\"x\"] }\n\
                    bar = { git = \"https://example.com/bar\" }\n";
        let f = check_manifest(toml);
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn rejects_net_facing_even_with_path() {
        let toml = "[dependencies]\nreqwest = { path = \"../vendor/reqwest\" }\n";
        let f = check_manifest(toml);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("net-facing"));
    }

    #[test]
    fn handles_section_form_deps() {
        let toml = "[dependencies.rand]\nversion = \"0.8\"\n\n[profile.release]\nlto = true\n";
        let f = check_manifest(toml);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("rand"));
    }

    #[test]
    fn a_member_must_opt_in_to_the_workspace_lints() {
        let opted_in = "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n\n[dependencies]\n";
        assert!(missing_workspace_lints(opted_in).is_none());
        for missing in [
            "[package]\nname = \"x\"\n",
            "[package]\nname = \"x\"\n[lints]\n[dependencies]\nworkspace = true\n",
            "[package]\n[lints.rust]\nmissing_docs = \"deny\"\n",
            "[package]\n# [lints]\n# workspace = true\n",
        ] {
            let finding = missing_workspace_lints(missing);
            assert!(
                finding.is_some_and(|f| f.rule == RuleId::DepHygiene),
                "{missing}"
            );
        }
    }

    #[test]
    fn ignores_non_dep_sections() {
        let toml = "[package]\nname = \"x\"\nversion = \"0.1.0\"\n[features]\ndefault = []\n";
        assert!(check_manifest(toml).is_empty());
    }
}
