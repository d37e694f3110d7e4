//! What a run reports: metrics by name with units, the operation counts,
//! the host block, and the files each run leaves under `benchmark/`.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The nominal run length every count in the workload tables is sized
/// for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 20.0;

/// A nominal count scaled to the run length, never below `floor`.
pub fn scaled(count: usize, scale: f64, floor: usize) -> usize {
    ((count as f64 * scale).round() as usize).max(floor)
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations attempted and failed: every request sent, every
    /// simulation run, every output check.
    pub attempted: u64,
    pub failed: u64,
    /// Names of the checks that failed, for the human-readable report.
    pub failures: Vec<String>,
    /// The end-to-end metrics of `BENCHMARK.json` (untraced run).
    pub e2e: Vec<Metric>,
    /// Workload-specific readings that are not regression-gated: exact
    /// outcome counts and the native latencies of the daemon phases.
    pub extra: Vec<Metric>,
    /// The per-layer metrics of `BENCHMARK.json` (traced run).
    pub layers: Vec<Metric>,
    /// How many samples stand behind each timing.
    pub samples: Vec<(&'static str, usize)>,
}

impl RunOutput {
    /// Records one output check as an attempted operation.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if !self.failures.iter().any(|f| f == what) {
                self.failures.push(what.to_string());
            }
        }
    }

    /// Records `attempted` operations of which `failed` failed.
    pub fn operations(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{what}: {failed} of {attempted}"));
        }
    }
}

/// The repository root: the benchmark crate's parent directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// A directory under `benchmark/` for files a run leaves behind.
pub fn bench_dir(name: &str) -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default()
}

fn file_field(path: &str, key: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_default()
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// (longest mount-point prefix wins).
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, kind)| kind)
        .unwrap_or_default()
}

/// Where and on what the numbers were taken. `work_dir` is where the
/// daemon's write-ahead log lives, so its filesystem decides what an
/// `fsync` costs.
pub fn host_block(work_dir: &Path) -> Value {
    let root = repo_root();
    let git = command_line(
        "git",
        &["-C", &root.display().to_string(), "rev-parse", "HEAD"],
    );
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Value::Map(vec![
        ("nproc".into(), Value::U64(threads)),
        (
            "cpu_model".into(),
            Value::Str(file_field("/proc/cpuinfo", "model name")),
        ),
        (
            "kernel".into(),
            Value::Str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .unwrap_or_default()
                    .trim()
                    .to_string(),
            ),
        ),
        ("rustc".into(), Value::Str(command_line("rustc", &["-V"]))),
        ("git_commit".into(), Value::Str(git)),
        (
            "work_filesystem".into(),
            Value::Str(filesystem_of(work_dir)),
        ),
    ])
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Map(vec![
                        ("value".into(), Value::F64(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The one JSON object the driver reads from the last line of stdout.
pub fn result_line(out: &RunOutput, traced: bool) -> String {
    let metrics = if traced { &out.layers } else { &out.e2e };
    let value = Value::Map(vec![
        ("correct".into(), Value::Bool(out.failed == 0)),
        ("attempted".into(), Value::U64(out.attempted.max(1))),
        ("failed".into(), Value::U64(out.failed)),
        ("metrics".into(), metrics_value(metrics)),
    ]);
    serde_json::to_string(&value).expect("values serialize")
}

/// The run record written to `benchmark/results/` and appended to a
/// `--record` set: metrics, sample counts, seed and host block.
pub fn run_record(
    out: &RunOutput,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    work_dir: &Path,
) -> Value {
    Value::Map(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("seed".into(), Value::U64(seed)),
        ("seconds".into(), Value::F64(seconds)),
        ("traced".into(), Value::Bool(traced)),
        ("correct".into(), Value::Bool(out.failed == 0)),
        ("attempted".into(), Value::U64(out.attempted)),
        ("failed".into(), Value::U64(out.failed)),
        ("end_to_end".into(), metrics_value(&out.e2e)),
        ("extra".into(), metrics_value(&out.extra)),
        ("per_layer".into(), metrics_value(&out.layers)),
        (
            "samples".into(),
            Value::Map(
                out.samples
                    .iter()
                    .map(|(k, n)| (k.to_string(), Value::U64(*n as u64)))
                    .collect(),
            ),
        ),
        ("host".into(), host_block(work_dir)),
    ])
}

/// Appends `record` to the run set at `path` (`{"runs":[...]}`), creating
/// it when absent.
pub fn append_to_set(path: &Path, record: Value) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => read_runs(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    runs.push(record);
    let set = Value::Map(vec![("runs".into(), Value::Seq(runs))]);
    let text = serde_json::to_string_pretty(&set).expect("values serialize");
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// The runs of a set file; a single run record reads as a set of one.
pub fn read_runs(text: &str) -> Result<Vec<Value>, String> {
    let value = serde_json::parse(text).map_err(|e| e.to_string())?;
    match value.get("runs") {
        Some(Value::Seq(runs)) => Ok(runs.clone()),
        Some(_) => Err("`runs` is not an array".into()),
        None if value.get("workload").is_some() => Ok(vec![value]),
        None => Err("neither a run set nor a run record".into()),
    }
}

/// A number out of a parsed JSON value.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

/// One metric declaration of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better_higher: bool,
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

/// The contract file at the repository root. `compare` reads the bounds;
/// the rest is read by the test that holds every workload to this file.
#[derive(Debug)]
#[cfg_attr(not(test), allow(dead_code))]
pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

pub fn read_contract() -> Result<Contract, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value = serde_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<Vec<Value>, String> {
        match value.get(key) {
            Some(Value::Seq(items)) => Ok(items.clone()),
            _ => Err(format!("BENCHMARK.json: `{key}` is not an array")),
        }
    };
    let text_of = |item: &Value, key: &str| -> Result<String, String> {
        item.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: metric without `{key}`"))
    };
    let declared = |key: &str| -> Result<Vec<Declared>, String> {
        list(key)?
            .iter()
            .map(|item| {
                Ok(Declared {
                    name: text_of(item, "name")?,
                    unit: text_of(item, "unit")?,
                    better_higher: text_of(item, "better")? == "higher",
                    bound: item.get("bound").and_then(as_f64),
                })
            })
            .collect()
    };
    Ok(Contract {
        run_seconds: value
            .get("run_seconds")
            .and_then(as_f64)
            .ok_or("BENCHMARK.json: no `run_seconds`")?,
        workloads: list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: declared("end_to_end")?,
        per_layer: declared("per_layer")?,
    })
}
