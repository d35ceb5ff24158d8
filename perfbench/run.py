#!/usr/bin/env python3
"""Runs one perfbench workload: builds the benchmark from the checkout's
sources, prepares the seeded inputs, runs the measurement binary and
passes its report through. The last line of standard output is one JSON
object with the contract metrics listed in BENCHMARK.json.

    python3 perfbench/run.py --workload gmpz_cat --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build),
the gzip file of each corpus is cached next to it, keyed by the
generator's source (which also fixes the corpus size), the seed and
`gzip --version`.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("gmpz_cat", "gzip_cat", "serve_zipf_64k", "compress")
CORPUS_GENERATOR = "wikipedia_xml"
GZIP_LEVEL = "-6"
CACHE_KEEP = 8  # gzip files kept in the cache (oldest evicted first)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the perfbench package; returns the binary."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def source_stamp(root):
    """The git SHA when the checkout is a repository, else a hash of src/."""
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        digest = hashlib.sha1()
        for path in sorted((root / "src").rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
        return "src-sha1:" + digest.hexdigest()[:12]


def gzip_file(root, binary, cache_dir, seed):
    """Returns (path, version) of the cached `gzip -6` file of the corpus,
    making it on a miss. Outside every timed window. The key names the
    generator by a hash of its source, which holds the corpus size too, so
    editing either invalidates the cache."""
    gzip = shutil.which("gzip")
    if gzip is None:
        return None, None
    version = subprocess.run([gzip, "--version"], capture_output=True, text=True,
                             check=True).stdout.splitlines()[0].strip()
    generator = hashlib.sha1((root / "perfbench/src/corpus.cpp").read_bytes()).hexdigest()[:8]
    tag = hashlib.sha1(version.encode()).hexdigest()[:8]
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{CORPUS_GENERATOR}.{generator}-seed{seed}-gzip.{tag}.gz"
    if path.exists():
        os.utime(path)
        return path, version
    plain = cache_dir / f"plain-{os.getpid()}.txt"
    part = cache_dir / f"{path.name}.{os.getpid()}.part"
    try:
        subprocess.run([str(binary), "--gen-corpus", str(plain), "--seed", str(seed)],
                       check=True)
        with open(part, "wb") as out:
            subprocess.run([gzip, GZIP_LEVEL, "-c", str(plain)], stdout=out, check=True)
        os.replace(part, path)
    finally:
        for leftover in (plain, part):
            if leftover.exists():
                leftover.unlink()
    cached = sorted(cache_dir.glob("*.gz"), key=lambda p: p.stat().st_mtime)
    for old in cached[:-CACHE_KEEP]:
        old.unlink()
    return path, version


def check_contract(root, result, trace):
    """The metrics the binary printed must be exactly the ones BENCHMARK.json lists."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if wanted != got:
        log(f"metrics differ from BENCHMARK.json: want {sorted(wanted.items())}, "
            f"got {sorted(got.items())}")
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    work_dir = target / "perfbench-work"

    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    work_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--git-sha", source_stamp(root)]
    if args.workload == "gzip_cat":
        gz, version = gzip_file(root, binary, target / "perfbench-cache", args.seed)
        if gz is None:
            print("gzip_cat: unavailable (no gzip binary on PATH)")
            log("gzip_cat unavailable: no gzip binary (no stored-block fallback)")
            return 3
        cmd += ["--gz", str(gz), "--gzip-version", version]
    else:
        cmd += ["--gzip-version", "n/a (workload does not use gzip)"]

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    if not lines or not check_contract(root, json.loads(lines[-1]), args.trace == 1):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
