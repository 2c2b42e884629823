"""Record golden.json: output digests of every workload at every doc seed.

    python3 perfbench/record.py

Run from a checkout of the commit whose outputs define correct results.
Each invocation of every workload, at both sizes and every doc seed, runs
once at --threads nproc; the digests (see outputs.py) replace golden.json.
"""

import json
import shutil
import sys

import outputs
import run


def main():
    spec = run.load_workloads()
    golden = {}
    for size in ("tiny", "full"):
        for name in sorted(spec["workloads"]):
            entries = golden.setdefault(size, {}).setdefault(name, {})
            for seed in range(spec["doc_seeds"]):
                wl = run.Workload(spec, name, seed, size, "record")
                res = wl.run_pass("record", "plain", run.nproc())
                for r in res:
                    if r["code"] != 0:
                        with open(r["log"]) as f:
                            sys.stderr.write(f.read())
                        return 1
                entries[str(seed)] = [outputs.digest(r["outdir"]) for r in res]
                shutil.rmtree(wl.dir)
                print(f"{size} {name} seed {seed}: "
                      f"{sum(r['wall'] for r in res):.2f} s", flush=True)
    with open(run.GOLDEN, "w") as f:
        json.dump(golden, f, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
