"""Deep corrupt-input fuzz of every in-repo image decoder.

Truncates / bit-flips / garbage-injects a valid stream N times per format
(the checked-in ``fuzz_seeds`` corpus, FIXTURES.md §8) and asserts the
documented contract: decode either succeeds or raises ValueError /
NotImplementedError — never a foreign exception type, never a crash. This is the harness that found the round-5 memory-safety bugs
(GIF LZW table overflow, progressive-JPEG spectral-band overwrite); the
quick 60-trial version runs in pytest (tests/test_codec_property.py, on
the same seeds and ``mutants``), this script is the deep sweep.

Usage: PYTHONPATH=. python tools/fuzz_codecs.py [trials_per_format=4000] [seed=0]
Each format runs in a SUBPROCESS so a memory-safety crash (SIGSEGV/SIGABRT)
is reported as CRASH for that format instead of killing the sweep.
"""
from __future__ import annotations

import subprocess
import sys

import numpy as np

FORMATS = ["jpeg", "jpeg_prog", "png", "gif", "bmp", "tiff"]


def seeds() -> dict:
    """name → (seed stream, its decoder), from the checked-in corpus."""
    from projcl_ray.images import decode_image, read_fixture

    return {r["name"]: (r["bytes"],
                        lambda b, fmt=r["fmt"]: decode_image(b, 0, 0, fmt))
            for r in read_fixture("fuzz_seeds").to_pylist()}


def mutants(buf: bytes, trials: int, seed: int = 0):
    """``trials`` corrupt copies of ``buf``: in turn truncated, with 1–5
    bytes overwritten, and with 16 random bytes injected."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        b = bytearray(buf)
        mode = trial % 3
        if mode == 0 and len(b) > 8:
            b = b[: rng.integers(1, len(b))]
        elif mode == 1:
            for _ in range(rng.integers(1, 6)):
                b[rng.integers(0, len(b))] = rng.integers(0, 256)
        else:
            pos = rng.integers(0, len(b))
            b = (b[:pos]
                 + bytes(rng.integers(0, 256, 16, dtype=np.uint8).tobytes())
                 + b[pos:])
        yield bytes(b)


def _child(name: str, trials: int, seed: int) -> int:
    buf, dec = seeds()[name]
    leaks = 0
    for trial, b in enumerate(mutants(buf, trials, seed)):
        try:
            dec(b)
        except (ValueError, NotImplementedError):
            pass
        except Exception as exc:
            leaks += 1
            if leaks <= 3:
                print(f"LEAK {name} trial {trial}: "
                      f"{type(exc).__name__}: {exc}", flush=True)
    print(f"{name}: {'CLEAN' if leaks == 0 else f'{leaks} leaks'}", flush=True)
    return 1 if leaks else 0


def main(trials: int, seed: int = 0) -> int:
    failed = 0
    for name in FORMATS:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", name, str(trials), str(seed)],
            capture_output=True, text=True)
        out = proc.stdout.strip()
        if proc.returncode != 0 and not out.endswith("leaks"):
            print(f"{name}: CRASH (exit {proc.returncode}) "
                  f"{proc.stderr.strip()[-120:]}")
            failed += 1
        else:
            print(out or f"{name}: no output (exit {proc.returncode})")
            failed += proc.returncode != 0
    print(f"\n{len(FORMATS) - failed}/{len(FORMATS)} formats clean "
          f"at {trials} trials each (seed {seed})")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(_child(sys.argv[2], int(sys.argv[3]), int(sys.argv[4])))
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 4000,
                  int(sys.argv[2]) if len(sys.argv) > 2 else 0))
