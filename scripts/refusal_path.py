#!/usr/bin/env python3
"""Checks that the host check's refusal path runs no VEX instruction.

    python3 scripts/refusal_path.py [BINARY]

BINARY defaults to target/release/bucketrank. The x86-64-v3 build's
`main` first compares the features compiled in with CPUID and, on a CPU
that lacks one, prints the refusal and calls `std::process::exit(2)`. If
that path itself ran an AVX (VEX-encoded) instruction, an old CPU would
get the SIGILL the check exists to prevent.

The refusal path is read from `objdump -d --no-show-raw-insn` of the
binary:

* in `bucketrank::main`, every instruction on a control-flow path from
  the entry to the first call to `std::process::exit` it reaches (the
  exit call fewest instructions from the entry; the run-error exit lies
  behind `bucketrank_cli::run`). Calls fall through; a call made
  through the GOT is resolved with `objdump -R`;
* all of `<bucketrank_cli::HostRefusal as core::fmt::Display>::fmt`;
* all of `bucketrank_cli::host_verdict` and `bucketrank_cli::detected_v3`
  where they are not inlined.

Any `v…` mnemonic there fails the check, and so does a layout it cannot
read: no `main`, no exit call, no `fmt`, or an indirect jump inside
`main`. Calls into the standard library are not followed: std is
prebuilt for the baseline target.
"""

import re
import subprocess
import sys
from collections import deque

MAIN = "bucketrank::main"
FMT = "<bucketrank_cli::HostRefusal as core::fmt::Display>::fmt"
OPTIONAL = ("bucketrank_cli::host_verdict", "bucketrank_cli::detected_v3")
EXIT = "std::process::exit"
PREFIXES = {"lock", "rep", "repz", "repe", "repnz", "repne", "notrack", "bnd", "data16", "addr32"}


def objdump(*args):
    return subprocess.run(["objdump", *args], check=True, stdout=subprocess.PIPE,
                          text=True).stdout


def parse(binary):
    """Returns ({name: [(addr, op, operands)]}, {addr: name}) for every function."""
    functions, names, current = {}, {}, None
    for line in objdump("-d", "--no-show-raw-insn", "-C", binary).splitlines():
        head = re.match(r"^([0-9a-f]+) <(.*)>:$", line)
        if head:
            current = head.group(2)
            functions.setdefault(current, [])
            names[int(head.group(1), 16)] = current
            continue
        insn = re.match(r"^\s+([0-9a-f]+):\t(.*)$", line)
        if insn and current is not None:
            words = insn.group(2).split()
            while len(words) > 1 and words[0] in PREFIXES:
                words = words[1:]
            if words:
                functions[current].append((int(insn.group(1), 16), words[0], " ".join(words[1:])))
    return functions, names


def got_targets(binary):
    """The GOT slot → target address map, from the R_X86_64_RELATIVE relocations."""
    slots = {}
    for line in objdump("-R", binary).splitlines():
        m = re.match(r"^([0-9a-f]+)\s+R_X86_64_RELATIVE\s+\*ABS\*\+0x([0-9a-f]+)", line)
        if m:
            slots[int(m.group(1), 16)] = int(m.group(2), 16)
    return slots


def callee(operands, names, slots):
    """The name of a call's target, or None when it cannot be resolved."""
    direct = re.match(r"^[0-9a-f]+ <(.*)>$", operands)
    if direct:
        return re.sub(r"\+0x[0-9a-f]+$", "", direct.group(1))
    got = re.search(r"#\s*([0-9a-f]+) <", operands)
    if got and operands.startswith("*") and "(%rip)" in operands:
        return names.get(slots.get(int(got.group(1), 16)))
    return None


def refusal_path(insns, names, slots):
    """The instructions of `main` on a path from the entry to its nearest exit call."""
    index = {addr: i for i, (addr, _, _) in enumerate(insns)}
    exits = {i for i, (_, op, args) in enumerate(insns)
             if op.startswith("call") and callee(args, names, slots) == EXIT}
    succ = []
    for i, (_, op, args) in enumerate(insns):
        target = re.match(r"^([0-9a-f]+) <", args)
        if op.startswith("jmp"):
            if args.startswith("*") and "(%rip)" not in args:
                sys.exit("refusal_path.py: indirect jump in %s: %s %s" % (MAIN, op, args))
            local = target and int(target.group(1), 16) in index
            succ.append([index[int(target.group(1), 16)]] if local else [])
        elif op.startswith("j"):
            nxt = [i + 1] if i + 1 < len(insns) else []
            succ.append(nxt + ([index[int(target.group(1), 16)]]
                               if target and int(target.group(1), 16) in index else []))
        elif op.startswith("ret") or op == "ud2" or i in exits or i + 1 == len(insns):
            succ.append([])
        else:
            succ.append([i + 1])
    # Breadth first from the entry: the first exit call reached is the refusal's.
    seen, queue, first = {0}, deque([0]), None
    while queue:
        i = queue.popleft()
        if i in exits:
            first = i
            break
        for j in succ[i]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    if first is None:
        sys.exit("refusal_path.py: no call to %s reached from the entry of %s" % (EXIT, MAIN))
    # Forward from the entry (stopping at exit calls), backward from that call.
    forward, stack = {0}, [0]
    while stack:
        for j in succ[stack.pop()]:
            if j not in forward:
                forward.add(j)
                stack.append(j)
    pred = {}
    for i, js in enumerate(succ):
        for j in js:
            pred.setdefault(j, []).append(i)
    backward, stack = {first}, [first]
    while stack:
        for j in pred.get(stack.pop(), []):
            if j not in backward and j not in exits:
                backward.add(j)
                stack.append(j)
    return [insns[i] for i in sorted(forward & backward)]


def main():
    binary = sys.argv[1] if len(sys.argv) > 1 else "target/release/bucketrank"
    functions, names = parse(binary)
    for required in (MAIN, FMT):
        if not functions.get(required):
            sys.exit("refusal_path.py: no %s symbol in %s" % (required, binary))
    checked = {MAIN: refusal_path(functions[MAIN], names, got_targets(binary)), FMT: functions[FMT]}
    for name in OPTIONAL:
        if functions.get(name):
            checked[name] = functions[name]
    bad = [(name, addr, op, args) for name, insns in checked.items()
           for addr, op, args in insns if op.startswith("v")]
    for name, addr, op, args in bad:
        print("VEX instruction in %s at %x: %s %s" % (name, addr, op, args))
    if bad:
        sys.exit(1)
    print("ok: no VEX instruction on the host-refusal path (%s)"
          % ", ".join("%s: %d instructions" % (n, len(i)) for n, i in checked.items()))


if __name__ == "__main__":
    main()
