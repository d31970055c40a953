#!/usr/bin/env python3
"""Report library functions that no shipped binary links.

Builds the CLI, every bench and example binary and perfbench's
`cold_perfbench` with

    -O0 -ffunction-sections -fdata-sections -Wl,--gc-sections

so the linker drops every function no binary can reach, then compares the
`cold::` functions defined in the `src/` static libraries against those
left in the linked binaries (`nm`). Test binaries are not built: a
function only tests call is unreached.

    python3 tools/link_audit.py [--build-dir DIR] [--jobs N]

Skipped as noise: std:: instantiations (they do not start with cold::),
destructors, operators, lambdas and other local entities. Every other
unreached function must be listed in tools/link_audit_allow.txt, one per
line as `<demangled name without parameters>  # <test that needs it>`.

Exit status: 0 when every unreached function is allowlisted, 1 when one
is not (or an allowlist entry is stale), 2 when the build fails.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ALLOWLIST = REPO / "tools" / "link_audit_allow.txt"
FLAGS = "-O0 -ffunction-sections -fdata-sections"
LINK_FLAGS = "-Wl,--gc-sections"
TEXT_TYPES = set("TtWw")


def run(cmd: list[str], **kw) -> str:
    return subprocess.run(cmd, check=True, text=True,
                          stdout=subprocess.PIPE, **kw).stdout


def configure(src: Path, build: Path) -> None:
    run(["cmake", "-S", str(src), "-B", str(build),
         "-DCMAKE_BUILD_TYPE=Debug",
         f"-DCMAKE_CXX_FLAGS_DEBUG={FLAGS}",
         f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}"],
        stderr=subprocess.STDOUT)


def build_targets(build: Path, targets: list[str], jobs: int) -> None:
    run(["cmake", "--build", str(build), "-j", str(jobs),
         "--target", *targets], stderr=subprocess.STDOUT)


def shipped_targets(build: Path) -> list[str]:
    """Every executable target of the root project except the tests."""
    out = run(["cmake", "--build", str(build), "--target", "help"])
    names = [m.group(1) for m in re.finditer(r"^\.\.\. (\S+)", out, re.M)]
    meta = {"all", "clean", "depend", "edit_cache", "rebuild_cache", "test",
            "install", "list_install_components"}
    return [t for t in names if not t.startswith("test_") and t not in meta]


def text_symbols(path: Path) -> set[str]:
    out = run(["nm", "--defined-only", str(path)], stderr=subprocess.DEVNULL)
    syms = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[-2] in TEXT_TYPES:
            syms.add(parts[-1])
    return syms


def demangle(names: list[str]) -> dict[str, str]:
    out = run(["c++filt"], input="\n".join(names))
    return dict(zip(names, out.splitlines()))


def is_candidate(mangled: str, pretty: str) -> bool:
    # Functions (and templates) declared in namespace cold; _ZZ... local
    # entities and std:: instantiations never match.
    if not (mangled.startswith("_ZN4cold") or mangled.startswith("_ZNK4cold")):
        return False
    if "::~" in pretty or "::operator" in pretty or "{lambda" in pretty:
        return False
    return True


def key_of(pretty: str) -> str:
    """The demangled name without its parameter list or qualifiers."""
    pretty = pretty.replace("(anonymous namespace)", "{anon}")
    depth = 0
    for i, ch in enumerate(pretty):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0:
            return pretty[:i]
    return pretty


def load_allowlist() -> dict[str, str]:
    allow = {}
    if not ALLOWLIST.exists():
        return allow
    for raw in ALLOWLIST.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, why = line.partition("#")
        allow[name.strip()] = why.strip()
    return allow


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=str(REPO / "build-audit"),
                    help="scratch build tree (default: build-audit/)")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    args = ap.parse_args()
    build = Path(args.build_dir).resolve()

    try:
        configure(REPO, build / "root")
        build_targets(build / "root", shipped_targets(build / "root"),
                      args.jobs)
        configure(REPO / "perfbench", build / "perfbench")
        build_targets(build / "perfbench", ["cold_perfbench"], args.jobs)
    except subprocess.CalledProcessError as e:
        sys.stderr.write(e.stdout or "")
        print("link_audit: build failed", file=sys.stderr)
        return 2

    libs = sorted((build / "root" / "src").glob("*.a"))
    binaries = [p for p in (build / "root").rglob("*")
                if p.is_file() and os.access(p, os.X_OK)
                and "CMakeFiles" not in p.parts and p.suffix == ""
                and "tests" not in p.relative_to(build / "root").parts]
    binaries.append(build / "perfbench" / "cold_perfbench")

    defined: set[str] = set()
    for lib in libs:
        defined |= text_symbols(lib)
    linked: set[str] = set()
    for exe in binaries:
        linked |= text_symbols(exe)

    unreached = sorted(defined - linked)
    pretty = demangle(unreached)
    names = sorted({key_of(pretty[m]) for m in unreached
                    if is_candidate(m, pretty[m])})

    allow = load_allowlist()
    extra = [n for n in names if n not in allow]
    stale = [n for n in allow if n not in names]
    print(f"link_audit: {len(libs)} libraries, {len(binaries)} binaries, "
          f"{len(names)} unreached cold:: functions "
          f"({len(names) - len(extra)} allowlisted)")
    for n in names:
        tag = f"seam for {allow[n]}" if n in allow else "NOT ALLOWLISTED"
        print(f"  {n}  [{tag}]")
    for n in stale:
        print(f"  stale allowlist entry (now reached or gone): {n}")
    return 1 if extra or stale else 0


if __name__ == "__main__":
    sys.exit(main())
