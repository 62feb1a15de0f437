"""The README's examples run as shown: each fenced python block executes,
and each `$ shardcast ...` command whose output the README shows prints
exactly that output."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from shardcast.simulator import SETTINGS

REPO = Path(__file__).resolve().parent.parent
README = (REPO / "README.md").read_text(encoding="utf-8")

# Child processes import this checkout's package, installed or not.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH")))),
}


def fenced_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def shown_commands():
    """(command, output) for each `$ shardcast` line followed by output."""
    found = []
    for block in fenced_blocks("sh"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            if command.startswith("shardcast ") and output:
                found.append((command, output))
    return found


PYTHON_BLOCKS = fenced_blocks("python")
COMMANDS = shown_commands()


def test_the_examples_are_found():
    assert len(PYTHON_BLOCKS) == 2
    assert [command.split()[1] for command, _ in COMMANDS] == [
        "split", "encode", "decode", "simulate", "analyze"
    ]


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=range(len(PYTHON_BLOCKS)))
def test_python_example_runs(block, monkeypatch):
    monkeypatch.chdir(REPO)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})


@pytest.mark.parametrize("command,output", COMMANDS,
                         ids=[command.split()[1] for command, _ in COMMANDS])
def test_command_example_prints_what_is_shown(command, output):
    program = f"{shlex.quote(sys.executable)} -m shardcast "
    line = re.sub(r"(^|\| )shardcast ", lambda m: m.group(1) + program, command)
    proc = subprocess.run(line, shell=True, cwd=REPO, env=CHILD_ENV, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == output


def test_config_keys_sentence_lists_the_settings_table():
    sentence = re.search(r"The keys\s+are ([^.]*)\.", README)
    assert sentence, "README's config-key sentence is missing"
    assert re.findall(r"`(\w+)`", sentence.group(1)) == list(SETTINGS)
