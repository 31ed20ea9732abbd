#!/usr/bin/env bash
# Where the host time of one benchmark workload goes: a SIGPROF profile of
# the untraced run, sampled only inside the timed windows.
#
#   scripts/host_profile.sh WORKLOAD SEED [SECONDS=30] [REV=HEAD]
#
# Exports REV with `git archive` into a temporary directory (set TMPDIR to
# choose where; `git stash create` names the work tree's tracked changes
# as a commit) and patches only that copy's `benchmark/`:
#   - `src/prof.rs` installs a SIGPROF handler on a 1 ms `ITIMER_PROF`
#     that stores the interrupted instruction pointer, the word at the
#     stack pointer (the caller of a leaf that sets up no frame, such as
#     glibc's `memcpy`) and up to eight return addresses up the frame
#     pointer chain;
#   - `repetition` opens the sampling window just before `rig.run` and
#     closes it just after, and `Calib::run` pauses it, so set-up, the
#     audit and the reference loop are not sampled;
#   - `main` starts the timer and, before the result line, writes every
#     sample resolved through `/proc/self/maps` (`exe:0x…` inside the
#     executable, `<object>:0x…` elsewhere).
# Builds with frame pointers and line tables, runs the workload once,
# symbolises with `llvm-addr2line -f -i` (set ADDR2LINE to choose the
# binary) and prints the inclusive and self shares of the top functions
# and the inclusive share of the top source files. A frame counts once
# per sample however often it recurs; inlined frames count as their own
# functions. The kernel ticks the profiling timer at its HZ, so expect
# about 280 samples per CPU second. Samples and symbols stay in the
# printed directory.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
    echo "usage: $0 WORKLOAD SEED [SECONDS=30] [REV=HEAD]" >&2
    exit 2
fi
workload="$1" seed="$2" seconds="${3:-30}" rev="${4:-HEAD}"
tree="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
addr2line="${ADDR2LINE:-$(command -v llvm-addr2line || ls /usr/lib/llvm-*/bin/llvm-addr2line 2> /dev/null | tail -n 1)}"
if [[ -z $addr2line ]]; then
    echo "no llvm-addr2line found: set ADDR2LINE" >&2
    exit 2
fi
dir="$(mktemp -d "${TMPDIR:-/tmp}/host_profile.XXXXXX")"
mkdir -p "$dir/src"
git -C "$tree" archive "$rev" | tar -x -C "$dir/src"
bench="$dir/src/benchmark"

cat > "$bench/src/prof.rs" <<'EOF'
//! SIGPROF sampling inside the timed windows (profiling copy only).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

const CAP: usize = 1 << 17;
/// Per sample: rip, the word at rsp, then up to eight return addresses.
const WORDS: usize = 10;
static ON: AtomicBool = AtomicBool::new(false);
static NEXT: AtomicUsize = AtomicUsize::new(0);
static mut SAMPLES: [[u64; WORDS]; CAP] = [[0; WORDS]; CAP];

#[repr(C)]
struct SigAction {
    handler: usize,
    mask: [u64; 16],
    flags: i32,
    restorer: usize,
}

#[repr(C)]
struct ITimerVal {
    interval: [i64; 2],
    value: [i64; 2],
}

extern "C" {
    fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
    fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
}

const SIGPROF: i32 = 27;
const ITIMER_PROF: i32 = 2;
const SA_SIGINFO: i32 = 4;
const SA_RESTART: i32 = 0x1000_0000;

extern "C" fn on_sigprof(_sig: i32, _info: *mut u8, uctx: *mut u8) {
    if !ON.load(Relaxed) {
        return;
    }
    let i = NEXT.fetch_add(1, Relaxed);
    if i >= CAP {
        return;
    }
    // x86-64 glibc `ucontext_t`: `gregs` at byte 40; rbp 10, rsp 15, rip 16.
    unsafe {
        let gregs = uctx.add(40) as *const u64;
        let (rbp, rsp, rip) = (*gregs.add(10), *gregs.add(15), *gregs.add(16));
        let row = &mut (&mut *std::ptr::addr_of_mut!(SAMPLES))[i];
        row[0] = rip;
        row[1] = *(rsp as *const u64);
        let (mut fp, mut n) = (rbp, 2);
        while n < WORDS && fp >= rsp && fp < rsp + (8 << 20) && fp % 8 == 0 {
            row[n] = *((fp + 8) as *const u64);
            n += 1;
            let next = *(fp as *const u64);
            if next <= fp {
                break;
            }
            fp = next;
        }
    }
}

/// Installs the handler and starts the 1 ms profiling timer.
pub fn start() {
    let act = SigAction {
        handler: on_sigprof as *const () as usize,
        mask: [0; 16],
        flags: SA_SIGINFO | SA_RESTART,
        restorer: 0,
    };
    let tick = [0, 1_000];
    let timer = ITimerVal { interval: tick, value: tick };
    unsafe {
        assert_eq!(sigaction(SIGPROF, &act, std::ptr::null_mut()), 0);
        assert_eq!(setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()), 0);
    }
}

/// Opens (`true`) or closes the sampling window.
pub fn window(on: bool) {
    ON.store(on, Relaxed);
}

/// Closes the window; returns whether it was open.
pub fn pause() -> bool {
    ON.swap(false, Relaxed)
}

/// Reopens the window if `pause` found it open.
pub fn resume(was: bool) {
    ON.store(was, Relaxed);
}

/// Writes every sample, one line each, to `prof_samples.txt`.
pub fn dump() {
    window(false);
    let maps = std::fs::read_to_string("/proc/self/maps").expect("maps");
    let exe = std::fs::read_link("/proc/self/exe").expect("exe");
    let exe = exe.to_string_lossy().into_owned();
    let mut regions = Vec::new();
    for line in maps.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let Some((lo, hi)) = f[0].split_once('-') else { continue };
        let lo = u64::from_str_radix(lo, 16).unwrap();
        let hi = u64::from_str_radix(hi, 16).unwrap();
        let off = u64::from_str_radix(f[2], 16).unwrap();
        regions.push((lo, hi, off, f.get(5).copied().unwrap_or("").to_string()));
    }
    let base = regions.iter().filter(|r| r.3 == exe).map(|r| r.0).min().unwrap_or(0);
    let name = |a: u64| match regions.iter().find(|r| r.0 <= a && a < r.1) {
        Some(r) if r.3 == exe => format!("exe:0x{:x}", a - base),
        Some(r) if !r.3.is_empty() => {
            let object = r.3.rsplit('/').next().unwrap_or("?");
            format!("{object}:0x{:x}", a - r.0 + r.2)
        }
        _ => "-".to_string(),
    };
    let n = NEXT.load(Relaxed).min(CAP);
    let mut out = String::new();
    let all: &[[u64; WORDS]; CAP] = unsafe { &*std::ptr::addr_of!(SAMPLES) };
    for row in &all[..n] {
        let words: Vec<String> = row.iter().take_while(|&&w| w != 0).map(|&w| name(w)).collect();
        let _ = writeln!(out, "{}", words.join(" "));
    }
    std::fs::write("prof_samples.txt", out).expect("write samples");
}
EOF

python3 - "$bench" <<'EOF'
import sys
bench = sys.argv[1]
def patch(rel, old, new):
    path = f"{bench}/{rel}"
    text = open(path).read()
    if text.count(old) != 1:
        sys.exit(f"{rel}: anchor not found once: {old!r}")
    open(path, "w").write(text.replace(old, new))
patch("src/lib.rs", "pub mod json;\n", "pub mod json;\npub mod prof;\n")
patch("src/bench.rs", "    rig.run(&mut || pacer.tick());\n",
      "    crate::prof::window(true);\n    rig.run(&mut || pacer.tick());\n"
      "    crate::prof::window(false);\n")
patch("src/calib.rs", "    pub fn run(&mut self, iters: u64) {\n",
      "    pub fn run(&mut self, iters: u64) {\n        let sampling = crate::prof::pause();\n"
      "        self.run_unsampled(iters);\n        crate::prof::resume(sampling);\n    }\n\n"
      "    fn run_unsampled(&mut self, iters: u64) {\n")
patch("src/main.rs", "fn main() -> ExitCode {\n",
      "fn main() -> ExitCode {\n    pmnet_benchmark::prof::start();\n")
patch("src/main.rs", "    println!(\"{}\", report.result_line());\n",
      "    pmnet_benchmark::prof::dump();\n    println!(\"{}\", report.result_line());\n")
EOF

RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    CARGO_TARGET_DIR="$dir/target" cargo build --release --offline --quiet \
    --manifest-path "$bench/Cargo.toml"
bin="$dir/target/release/pmnet-benchmark"
(cd "$dir" && "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" > run.txt)

python3 - "$dir" "$bin" "$addr2line" "$workload" "$seed" "$seconds" <<'EOF'
import collections, json, re, subprocess, sys

dir, binary, addr2line, workload, seed, seconds = sys.argv[1:]
samples = [l.split() for l in open(f"{dir}/prof_samples.txt").read().splitlines()]
if not samples:
    sys.exit("no samples: did the run reach a timed window?")

def exe(word, ret):
    """The executable-relative address of `word` (a return address is
    looked up one byte back, inside its call), or None."""
    if not word.startswith("exe:"):
        return None
    a = int(word[4:], 16)
    return a - 1 if ret else a

wanted = sorted({a for s in samples for i, w in enumerate(s)
                 if (a := exe(w, i > 0)) is not None})
out = subprocess.run([addr2line, "--output-style=JSON", "-f", "-i", "-C", "-e", binary],
                     input="".join(f"0x{a:x}\n" for a in wanted),
                     capture_output=True, text=True, check=True).stdout.splitlines()

LEGACY = {"$LT$": "<", "$GT$": ">", "$u20$": " ", "$C$": ",", "$RF$": "&", "$BP$": "*",
          "$u7b$": "{", "$u7d$": "}", "$u27$": "'", "$LP$": "(", "$RP$": ")", "..": "::"}

def clean(name):
    """A function name without its hash, LLVM suffix or legacy escapes."""
    name = re.sub(r" \(\.llvm\.\d+\)$", "", name)
    name = re.sub(r"::h[0-9a-f]{16}$", "", name)
    if "$" in name:
        for escape, char in LEGACY.items():
            name = name.replace(escape, char)
        name = name.lstrip("_")
    return name

def source(path):
    for root in ("crates/", "benchmark/", "library/", "src/"):
        if root in path:
            return root + path.split(root, 1)[1]
    return path or "?"

chains = {}  # address -> [(function, file)], innermost first
open(f"{dir}/symbols.jsonl", "w").write("".join(l + "\n" for l in out))
for a, line in zip(wanted, out):
    frames = json.loads(line).get("Symbol", [])
    chains[a] = [(clean(f["FunctionName"]), source(f["FileName"])) for f in frames]

total = len(samples)
inclusive, by_file, self_share = (collections.Counter() for _ in range(3))
for s in samples:
    rip = exe(s[0], False)
    if rip is None:
        # Outside the executable (glibc's `memcpy`, ...): the word at rsp
        # names the caller; credit its first frame under the project.
        caller = exe(s[1], True) if len(s) > 1 else None
        chain = chains.get(caller, [])
        owner = next((f for f, p in chain if p.startswith(("crates/", "benchmark/"))), "?")
        leaf = f"[{s[0].split(':')[0]}] from {owner}"
        frames = [(leaf, s[0].split(":")[0])] + chain
    else:
        frames = list(chains.get(rip, []))
        leaf = frames[0][0] if frames else s[0]
    for w in s[2:]:
        frames += chains.get(exe(w, True), [])
    self_share[leaf] += 1
    # The harness's own frames (std's entry points) are in every sample.
    frames = [(f, p) for f, p in frames if not p.startswith(("library/std/", "?"))]
    inclusive.update({f for f, _ in frames})
    by_file.update({p for _, p in frames})

def table(title, counter, n):
    print(f"\n{title}")
    for name, k in counter.most_common(n):
        print(f"  {100 * k / total:6.2f} %  {name[:150]}")

cycles = int(re.search(r"cycles (\d+)", open(f"{dir}/run.txt").read()).group(1))
print(f"host profile: {workload}, seed {seed}, {seconds} s, {total} samples in timed windows,"
      f" {total / cycles:.1f} per repetition ({cycles})")
print(f"samples and symbols: {dir}")
table("inclusive share by function", inclusive, 60)
table("self share by function", self_share, 30)
table("inclusive share by source file", by_file, 25)
EOF
