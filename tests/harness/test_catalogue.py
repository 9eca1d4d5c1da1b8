"""The experiment catalogue's contracts, checked from the committed files.

A full cold run of the catalogue belongs to CI's paper-claims job; these
tests only read files.
"""

import os
import re

from repro.harness.experiments import CATALOGUE

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RESULTS = os.path.join(ROOT, "benchmarks", "results")

#: An embedded table: a marker comment naming the file, then a text block.
EMBEDDED = re.compile(
    r"^<!-- benchmarks/results/(\S+)\.txt -->\n```text\n(.*?)^```$",
    re.S | re.M,
)


def read(path):
    with open(path) as handle:
        return handle.read()


def test_every_result_file_belongs_to_exactly_one_entry():
    files = sorted(name[:-len(".txt")] for name in os.listdir(RESULTS)
                   if name.endswith(".txt"))
    assert sorted(experiment.result for experiment in CATALOGUE) == files


def test_ids_are_unique():
    ids = [experiment.id for experiment in CATALOGUE]
    assert len(ids) == len(set(ids))


def test_experiments_md_embeds_every_committed_table_verbatim():
    blocks = EMBEDDED.findall(read(os.path.join(ROOT, "EXPERIMENTS.md")))
    assert sorted(name for name, _ in blocks) \
        == sorted(experiment.result for experiment in CATALOGUE)
    for name, block in blocks:
        assert block == read(os.path.join(RESULTS, f"{name}.txt")), name
