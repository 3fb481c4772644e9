#!/usr/bin/env python3
"""lines.py <samples> <binary> <substr> [N]: top source lines (innermost frame) among samples whose outermost symbol contains substr; plus raw address histogram."""
import collections, subprocess, sys
path, binary, sub = sys.argv[1:4]
n = int(sys.argv[4]) if len(sys.argv) > 4 else 25
offs = [l.split()[1] for l in open(path) if l.split()[0].endswith("benchmark")]
out = subprocess.run(["addr2line","-a","-f","-i","-C","-e",binary]+offs,capture_output=True,text=True).stdout.split("\n")
blocks=[]
for line in out:
    if line.startswith("0x") and len(line.split())==1: blocks.append([line])
    elif blocks and line: blocks[-1].append(line)
c=collections.Counter(); addrs=collections.Counter()
for b in blocks:
    fn=b[1::2]; loc=b[2::2]
    if fn and sub in fn[-1]:
        c[(fn[0][-50:], loc[0].split('/')[-1])]+=1; addrs[b[0]]+=1
tot=len(blocks)
for (f,l),k in c.most_common(n): print(f"{100*k/tot:5.2f}%  {l:40s} {f}")
print("-- addresses")
for a,k in addrs.most_common(12): print(f"{100*k/tot:5.2f}% {a}")
