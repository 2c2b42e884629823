"""Byte-identity guard: the sha256 of every output file of the four experiments.

Two tiny documents, linear-scalar and quadratic-scalar with the improved
rules, run through ``cli.main`` in-process at --threads 1 and 2; a third,
linear-scalar on a fine-step reference over three nested step sizes, runs
through ``converge`` only.  The pinned
digests were recorded with numpy 2.4.6; a refactor that means to keep every
output bit must leave them as they are, and a change that means to move
outputs re-records them on purpose: ``python tests/test_output_digests.py``
prints the table of the tree it runs on.
"""

import contextlib
import hashlib
import io
import json

import pytest

from rtesim import cli

DOCS = {
    "linear": {
        "schema": 1,
        "model": {"name": "linear-scalar",
                  "params": {"alpha": 1.5, "lambda": 200.0, "epsilon": 0.007}},
        "solver": [{"theta": 0.0, "quadrature": "euler", "h": [0.5, 0.25]},
                   {"theta": 1.0, "quadrature": "trapezoidal", "h": [0.5, 0.25]}],
        "T": 1.0, "x0": 10.0, "M": 6, "seed": 5, "reference": "exact",
    },
    "quadratic": {
        "schema": 1,
        "model": {"name": "quadratic-scalar",
                  "params": {"alpha": 1.0, "beta": 20.0, "epsilon": 0.01}},
        "solver": [{"theta": 0.5, "quadrature": "improved-trapezoidal",
                    "h": [0.5, 0.25]},
                   {"theta": 1.0, "quadrature": "improved-midpoint",
                    "h": [0.5, 0.25]}],
        "T": 1.0, "x0": 1.0, "M": 6, "seed": 0, "reference": "exact",
    },
    "linear-fine-step": {
        "schema": 1,
        "model": {"name": "linear-scalar",
                  "params": {"alpha": 1.5, "lambda": 200.0, "epsilon": 0.007}},
        "solver": [{"theta": 0.0, "quadrature": "euler", "h": [0.5, 0.25, 0.125]},
                   {"theta": 1.0, "quadrature": "euler", "h": [0.5, 0.25, 0.125]},
                   {"theta": 0.5, "quadrature": "trapezoidal",
                    "h": [0.5, 0.25, 0.125]}],
        "T": 1.0, "x0": 10.0, "M": 4, "seed": 5, "reference": {"h_ref": 0.0625},
    },
}
ARGV = {"simulate": ["--sample-grid", "0.25"], "converge": [],
        "local-error": [], "diagnose": []}
EXPERIMENTS = {"linear": list(ARGV), "quadratic": list(ARGV),
               "linear-fine-step": ["converge"]}

# per (document, experiment): {file: sha256}
PINNED = {
    ('linear', 'simulate'): {
        'exact_grid.csv':
            '6633661e2a2e320c190d004de2fdc65f38fd04fc2aeb241ff2b4d38316552c30',
        'exact_jumps.csv':
            'ddc6217ee09c74a1b32e16f64ee7540c89081ee2e94cf52d9f758a58d47278d1',
        'exact_segments.csv':
            '0e45aeb0da7a6bcb6df832997bb6c3a989b5141084172fc5ea3e81ca6370ea49',
        'meta.json':
            '9cbb410b6b7ae27075d4be0087fd5d50cdadef00b80f0c1ebf76ec29bd82e06d',
        'traj_theta0-euler-h0.25.csv':
            '34351b86d98ce69cb6e4d5562596f56d9a3a90a3bfd7a54750f4b3f4e7d46dd7',
        'traj_theta0-euler-h0.5.csv':
            '97c9598b4ccc05227a0b74fa0d0b46dccd50e431dc5efb0a16bd5cea4838db7e',
        'traj_theta1-trapezoidal-h0.25.csv':
            'fa2b81cf70151531ba4ac5f0e749ed9301d4c636ddc7490cc72d37856ee9c76e',
        'traj_theta1-trapezoidal-h0.5.csv':
            '27d33297b953c160e1f6c4041ee4856655a173778fe100893ea0d6c0bef970dc',
    },
    ('linear', 'converge'): {
        'fit.txt':
            'd1b6eef2610d77c1fa2c62bbe46f44afef4b940d1f09c611bc96d85b104f6f00',
        'meta.json':
            '4fd6c34e8db4ab6804ba17953c42be9217c902d2ffae6054fca7ef8fdb74119c',
        'report.csv':
            '86302fae94522a783c9c68302ab7f33164bfb921ae2455f4f07e39250c2ab7bb',
    },
    ('linear', 'local-error'): {
        'local_theta0-euler-h0.25.csv':
            '8e172493f2ce918a9e2b382a52d060f6075d1bf9c10158f07a33769d0829fc40',
        'local_theta0-euler-h0.5.csv':
            '65c2a64b137ccaa862a1131ae46a346ea1938327a00a143dac21dbd8d18b0baf',
        'local_theta1-trapezoidal-h0.25.csv':
            '7a87629e95e63cd804b305b3e9bdd30fcd28a04e88ea6275be4d92fa22aea0aa',
        'local_theta1-trapezoidal-h0.5.csv':
            'd0c7599f49d70a569b15fdc77019229ef9d359fc6321d437eac8d219ca88e1ee',
        'meta.json':
            '0362e5c7372d55272a4b92a332468c3974a9158875e415b10aec4cec1041f90b',
    },
    ('linear', 'diagnose'): {
        'diagnose.csv':
            '2af4dac972a2eafbc384a241e41b5e88f1777294496a1b2d044a0b646c75c19d',
        'meta.json':
            'c29e440cde2e637ee2e1dda498fa435b59fb0a46b22f7aa6e44c38683a2df8ca',
    },
    ('linear-fine-step', 'converge'): {
        'fit.txt':
            '2096bdcaa4cc8bf31d6ca514d36313bdccc39d20a85b88fc5b7a4fd85c8f1e74',
        'meta.json':
            '4903dbc9ed410d4feef74db6385395c23f04cb79edc6404930c4bc0855c70466',
        'report.csv':
            '590f6c0933a9465ac6329175b2e9bf1d0ef2e487285c7922a99fa8cc15459935',
    },
    ('quadratic', 'simulate'): {
        'exact_grid.csv':
            '9c3cc76b5df5a51944f659f22962439c8c51ce78804efd9109579a0a31374e4b',
        'exact_jumps.csv':
            '5c808e3c178939cd95a50ed9aa2b017c75391724aa2cc755a2125188e7ec5133',
        'exact_segments.csv':
            '3118176f3b1a83dd0dbff06bede15d9387f03b6ea3dc5f488b85a94d3f62b170',
        'meta.json':
            '3f0da1787ed9915de110d619f15b5619f540393042f0428cfa0505ea500850ac',
        'traj_theta0.5-improved-trapezoidal-h0.25.csv':
            '636999eda76fa6adebe8c9824033e945b83192338b3db2ac3b4d095981b5903c',
        'traj_theta0.5-improved-trapezoidal-h0.5.csv':
            'fe0e7ca5a561595d89412a821152ceb9401ae0ba372decf5567ed98431d09574',
        'traj_theta1-improved-midpoint-h0.25.csv':
            '505013d527691e98a7a1e06e71316223117b5e76ef2e03f4f30a8172f02985f5',
        'traj_theta1-improved-midpoint-h0.5.csv':
            'd29d10a76963d344a23f94cf5b978a015e3fa79bdbc031e975549cb85aa545cb',
    },
    ('quadratic', 'converge'): {
        'fit.txt':
            'ef85901535ff6f755041bc0597ce1f57c1278afe450563f482d77a0a61bbf6d5',
        'meta.json':
            '918337b1a9275b6c2c41d5231de4feedf7327a6d5cfb2364aa205e99f1677e36',
        'report.csv':
            '6855aeb2cbf6e820c18ed5dd4929b517f626b4b06a5b74178da2d2ef1985794b',
    },
    ('quadratic', 'local-error'): {
        'local_theta0.5-improved-trapezoidal-h0.25.csv':
            '6bdb23031e45b9ec64ad0011c1fe0db7522102b088ecfdfcb7a5bffa89efbdb0',
        'local_theta0.5-improved-trapezoidal-h0.5.csv':
            'c7bea45d6238ac6914dec24f61f19a0a07da872030ce95645423fc2b61525484',
        'local_theta1-improved-midpoint-h0.25.csv':
            '8ceaf023942ceb6768f1f7b93a01ba6c555d894fc265a0289b0997f964ceb18a',
        'local_theta1-improved-midpoint-h0.5.csv':
            'de9c02fcc692c2711982acda226d4a86335e57deacf8aa69444ea58acfdb678b',
        'meta.json':
            '92a9e5f3548bf3e808ae6f44a0eb935839e8375239c5c3f3aafa45edd249a12d',
    },
    ('quadratic', 'diagnose'): {
        'diagnose.csv':
            '547d2e131cf4636adf14b645f672d93dcc06845ab236a628a4ef9667ca67751c',
        'meta.json':
            '7c1008ff7ab78923cf119078141d08a18d7b0dcc1fc3eccd2e77d4ff5092ee9c',
    },
}


def digests(tmp_path, doc, experiment, threads):
    """{file name: sha256 hex} of one run's output directory."""
    out = tmp_path / f"{experiment}-{threads}"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(doc, output=str(out))))
    status = cli.main([experiment, "--config", str(cfg), "--no-timestamp",
                       "--threads", str(threads)] + ARGV[experiment])
    assert status == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(DOCS))
def test_outputs_match_pinned_digests(tmp_path, name, capsys):
    for experiment in EXPERIMENTS[name]:
        want = PINNED[name, experiment]
        for threads in (1, 2):
            got = digests(tmp_path, DOCS[name], experiment, threads)
            assert sorted(got) == sorted(want), (name, experiment, threads)
            for file, sha in want.items():
                assert got[file] == sha, (
                    f"{name} {experiment} --threads {threads}: {file} changed")


if __name__ == "__main__":
    import pathlib
    import tempfile
    table = {}
    for name in sorted(DOCS):
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            for exp in EXPERIMENTS[name]:
                table[name, exp] = digests(pathlib.Path(tmp), DOCS[name], exp, 1)
    for key, files in table.items():
        print(f"    {key!r}: {{")
        for file, sha in files.items():
            print(f"        {file!r}:\n            {sha!r},")
        print("    },")
