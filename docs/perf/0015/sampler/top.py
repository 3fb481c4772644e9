#!/usr/bin/env python3
"""Symbolise a sigprof_sampler output file.

    top.py <samples> <binary> [N]

Prints the share of samples per module, then the top N innermost (inlined)
functions and the top N out-of-line symbols of <binary>, which must carry
line tables (CARGO_PROFILE_RELEASE_DEBUG=line-tables-only).
"""
import collections
import re
import subprocess
import sys

path, binary = sys.argv[1], sys.argv[2]
n = int(sys.argv[3]) if len(sys.argv) > 3 else 20

modules = collections.Counter()
offsets = []
for line in open(path):
    module, offset = line.split()
    if module.endswith("benchmark") or module == binary:
        offsets.append(offset)
    else:
        modules[module.rsplit("/", 1)[-1]] += 1
total = len(offsets) + sum(modules.values())

# `addr2line -a -f -i` prints, per address: the address, then one
# (function, file:line) pair per inlined frame, innermost first.
out = subprocess.run(
    ["addr2line", "-a", "-f", "-i", "-C", "-e", binary] + offsets,
    capture_output=True,
    text=True,
).stdout.split("\n")
blocks = []
for line in out:
    if line.startswith("0x") and len(line.split()) == 1:
        blocks.append([])
    elif blocks and line:
        blocks[-1].append(line)
inner = collections.Counter()
outer = collections.Counter()
for block in blocks:
    functions = block[0::2]
    if functions:
        inner[functions[0]] += 1
        outer[functions[-1]] += 1


def short(name):
    return re.sub(r"<([^<>]|<[^<>]*>)*>", "<..>", name)[:110]


print(f"samples {total} (binary {len(offsets)})")
for module, count in modules.most_common(5):
    print(f"  module {module}: {count} ({100 * count / total:.1f}%)")
print("-- innermost (inlined) function")
for name, count in inner.most_common(n):
    print(f"{100 * count / total:5.1f}%  {short(name)}")
print("-- outer (non-inlined) symbol")
for name, count in outer.most_common(n):
    print(f"{100 * count / total:5.1f}%  {short(name)}")
