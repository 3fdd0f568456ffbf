"""Re-record ``bench/digests.json``: the output digest of the first JOBS jobs
of every workload for seeds SEEDS, as the program at the current commit
writes them. Run it (from the repository root) in the change that is meant
to alter output bytes, and say so in CHANGES.md:

    python3 bench/record_digests.py
"""

import json
import shutil
import tempfile
from pathlib import Path

import run

SEEDS = range(0, 11)
JOBS = 8


def main() -> None:
    run._pin_blas_threads()
    cli = run._load_program()
    table = {}
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=run.ROOT))
    try:
        for workload in sorted(run.WORKLOADS):
            table[workload] = {}
            for seed in SEEDS:
                digests = []
                for job in range(JOBS):
                    out = workdir / "out.csv"
                    argv = run.job_argv(workload, seed, job, str(out))
                    code, _, error = run.run_job(cli.main, argv)
                    problems = [error] if error else run.check_output(out, argv, None)
                    if problems:
                        raise SystemExit(f"{workload} seed {seed} job {job}: {problems}")
                    digests.append(run.file_digest(out))
                table[workload][str(seed)] = digests
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
