//! Shared harness utilities: result tables, CSV export, profile
//! caching, and (debug builds only) a heap-allocation counter that lets
//! tier-1 tests pin the warm-evaluation hot path as allocation-free.

use daydream_core::ProfiledGraph;
use daydream_models::{zoo, Model};
use daydream_runtime::{ground_truth, ExecConfig};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

/// A [`System`](std::alloc::System) wrapper that counts allocations, and
/// the bytes they request, on the current thread. Installed as the
/// global allocator only in debug builds (`cargo test`), so release
/// benchmarks measure the stock allocator; [`thread_allocs`] and
/// [`thread_alloc_bytes`] report 0 there and [`assert_no_allocs`]
/// degrades to a plain call.
#[cfg(debug_assertions)]
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
        static BYTES: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts one allocation of `bytes`.
    fn count(bytes: usize) {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + bytes as u64));
    }

    pub struct CountingAlloc;

    // SAFETY: delegates verbatim to `System`; the counters are plain
    // thread-local `Cell` bumps, which cannot themselves allocate or
    // unwind.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count(new_size);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTER: CountingAlloc = CountingAlloc;

    pub fn thread_allocs() -> u64 {
        ALLOCS.with(|c| c.get())
    }

    pub fn thread_alloc_bytes() -> u64 {
        BYTES.with(|c| c.get())
    }
}

/// Heap allocations (including reallocations) made by the current
/// thread so far; always 0 in release builds, where the counting
/// allocator is not installed.
pub fn thread_allocs() -> u64 {
    #[cfg(debug_assertions)]
    {
        counting_alloc::thread_allocs()
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// Bytes the current thread's heap allocations have requested so far,
/// counting a reallocation as its new size; always 0 in release builds.
pub fn thread_alloc_bytes() -> u64 {
    #[cfg(debug_assertions)]
    {
        counting_alloc::thread_alloc_bytes()
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// Runs `f` and panics (debug builds only) if it heap-allocated —
/// how tier-1 tests pin the warm-evaluation hot loop.
pub fn assert_no_allocs<R>(what: &str, f: impl FnOnce() -> R) -> R {
    let before = thread_allocs();
    let r = f();
    let during = thread_allocs() - before;
    #[cfg(debug_assertions)]
    assert_eq!(during, 0, "{what} made {during} heap allocations");
    #[cfg(not(debug_assertions))]
    let _ = (what, during);
    r
}

/// A titled result table with aligned text rendering and CSV export.
#[derive(Debug, Clone)]
pub struct Table {
    /// Exhibit title (e.g. `"Figure 5: AMP"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row-major cells.
    pub rows: Vec<Vec<String>>,
    /// Free-text notes printed under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Writes the table as CSV under `target/figures/<name>.csv`.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("target/figures");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        std::fs::write(&path, out)?;
        Ok(path)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        writeln!(f, "\n== {} ==", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, c) in cells.iter().enumerate() {
                write!(f, "{:<w$}  ", c, w = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
        writeln!(f, "{}", "-".repeat(total))?;
        for r in &self.rows {
            line(f, r)?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Formats a millisecond value.
pub fn ms(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

type ProfileKey = (String, Option<u64>, bool);

static CACHE: OnceLock<Mutex<HashMap<ProfileKey, (ProfiledGraph, Model)>>> = OnceLock::new();

/// Builds (and caches) the single-GPU baseline profile for a model name.
///
/// `ps_worker` drops the weight-update phase and uses the MXNet/P4000
/// configuration — the paper's §6.6 parameter-server setting.
pub fn profile_for(name: &str, batch: Option<u64>, ps_worker: bool) -> (ProfiledGraph, Model) {
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (name.to_string(), batch, ps_worker);
    if let Some(hit) = cache.lock().unwrap().get(&key) {
        return hit.clone();
    }
    let model = zoo::by_name(name).unwrap_or_else(|| panic!("unknown model {name}"));
    let pg = if ps_worker {
        let cfg = match batch {
            Some(b) => ExecConfig::mxnet_p4000().with_batch(b),
            None => ExecConfig::mxnet_p4000(),
        };
        let ex = daydream_runtime::Executor::new(&model, &cfg);
        let mut plan = daydream_runtime::baseline_plan(&model, ex.batch());
        plan.wu.clear();
        ProfiledGraph::from_trace(&ex.run(&plan))
    } else {
        let cfg = match batch {
            Some(b) => ExecConfig::pytorch_2080ti().with_batch(b),
            None => ExecConfig::pytorch_2080ti(),
        };
        ProfiledGraph::from_trace(&ground_truth::run_baseline(&model, &cfg))
    };
    cache
        .lock()
        .unwrap()
        .insert(key.clone(), (pg.clone(), model.clone()));
    (pg, model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_exports() {
        let mut t = Table::new("demo", &["a", "bee"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("hello");
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("bee"));
        assert!(s.contains("note: hello"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(12.345), "12.3");
        assert_eq!(pct(0.1234), "12.3%");
    }

    #[test]
    fn profile_cache_round_trip() {
        let (a, _) = profile_for("ResNet-50", Some(4), false);
        let (b, _) = profile_for("ResNet-50", Some(4), false);
        assert_eq!(a.meta.model, "ResNet-50");
        assert_eq!(a.graph.len(), b.graph.len());
    }
}
