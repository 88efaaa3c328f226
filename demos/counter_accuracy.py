"""How accurate is the relaxed counter in practice?

Runs the counter under seeded random schedules, comparing every read's
return value against the exact number of increments completed before it,
then replays the low-count schedule that the unit bits keep in the window.
"""

import random

from relaxobj import ApproxCounter, check, counter_spec, run, seeded

N, K = 4, 4  # k*k >= n: the accuracy window is guaranteed


def main():
    factory = lambda memory: ApproxCounter(memory, N, K)
    print(f"counter with n={N} processes, accuracy factor k={K}")
    print(f"{'seed':>4}  {'exact v':>8}  {'read x':>7}  window v/k..v*k")
    for seed in range(8):
        rng = random.Random(seed)
        workload = [[("inc", ())] * rng.randint(2, 20) for _ in range(N - 1)]
        workload.append([("inc", ()), ("read", ())])
        result = run(factory, workload, seeded(seed))
        reads = [e for e in result.history if e.kind == "respond" and e.op == "read"]
        exact = sum(1 for e in result.history
                    if e.kind == "respond" and e.op == "inc"
                    and e.step <= reads[-1].step)
        x = reads[-1].payload
        print(f"{seed:>4}  ~{exact:>7}  {x:>7}  {exact/K:.1f} .. {exact*K}")

    print()
    print("checking histories against the relaxed specification:")
    workload = [[("inc", ()), ("read", ())] for _ in range(N)]
    verdicts = {}
    for seed in range(200):
        result = run(factory, workload, seeded(seed))
        v = check(result.history, counter_spec(K)).verdict
        verdicts[v] = verdicts.get(v, 0) + 1
    print(f"  200 random schedules of 8 ops: {verdicts}")

    print()
    print("the low-count regime (k < n-1): five increments complete while only")
    print("ladder bit 0 is set; p2 lost bit 0 and claimed a unit bit, so the")
    print("read counts it instead of returning k and undershooting v/k:")
    small = lambda memory: ApproxCounter(memory, 4, 2)
    workload = [[("inc", ()), ("inc", ())], [("inc", ())], [("inc", ())],
                [("inc", ()), ("read", ())]]
    result = run(small, workload, [0, 1, 2, 2, 3, 3, 3, 3, 3, 3])
    read = [e.payload for e in result.history
            if e.kind == "respond" and e.op == "read"][0]
    verdict = check(result.history, counter_spec(2)).verdict
    print(f"  n=4, k=2: 5 increments complete, read returns {read} -> {verdict}")


if __name__ == "__main__":
    main()
