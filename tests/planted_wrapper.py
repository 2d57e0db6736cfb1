"""A solver wrapper that answers the external wrapper protocol from a planted
scenario's ground truth, so that builds through ``ExternalBackend`` can be
checked against the in-process ``SyntheticBackend``.

    python3 -I -S planted_wrapper.py [--sleep-on <instance> <strategy>]... \
        <synthetic.json> <instance> <seed> <cutoff> [--name value]...

It prints ``RESULT: SOLVED, <runtime>`` with the virtual runtime that
``SyntheticScenarioSpec.runtime`` gives, or ``RESULT: TIMEOUT, <cutoff>``
when that runtime reaches the cutoff, at once. On an instance and strategy
named by a ``--sleep-on`` pair it sleeps a minute instead, so the race
reaches its deadline and kills it. It uses the standard library
only, so that it starts fast under ``-I -S``; the formulas below mirror
``acpp.synthetic`` and ``acpp.space._config_id`` and must change with them.
"""

import hashlib
import json
import sys
import time


def hash_unit(*parts: str) -> float:
    digest = hashlib.sha256("|".join(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def planted_runtime(spec: dict, instance_id: str, assignments: list[tuple[str, str]]) -> float:
    """The runtime of the configuration whose ``--name value`` pairs, in
    the configuration's (sorted) order, are ``assignments``."""
    config_id = hashlib.sha1(
        " ".join(f"{name}={value}" for name, value in assignments).encode()
    ).hexdigest()[:12]
    values = dict(assignments)
    family = spec["instance_family"][instance_id]
    base = spec["cost_table"][family][spec["values"].index(values["strategy"])]
    t = base * spec["hardness"].get(instance_id, 1.0)
    if spec["tilt_effect"] > 0 and "tilt" in values:
        ideal = spec["tilt_ideal"][family] if spec["tilt_ideal"] else 0.5
        t *= 1.0 + spec["tilt_effect"] * abs(float(values["tilt"]) - ideal)
    if spec["noise"] > 0:
        u = hash_unit(config_id, instance_id, spec["noise_key"])
        t *= 1.0 + spec["noise"] * (2.0 * u - 1.0)
    return t


def main(argv: list[str]) -> None:
    sleep_on = set()
    while argv[0] == "--sleep-on":
        sleep_on.add((argv[1], argv[2]))
        argv = argv[3:]
    spec_file, instance_id, _seed, cutoff, *flags = argv
    with open(spec_file) as fh:
        spec = json.load(fh)
    assignments = [(flags[i][2:], flags[i + 1]) for i in range(0, len(flags), 2)]
    if (instance_id, dict(assignments)["strategy"]) in sleep_on:
        time.sleep(60)
    t = planted_runtime(spec, instance_id, assignments)
    if t >= float(cutoff):
        print(f"RESULT: TIMEOUT, {cutoff}")
    else:
        print(f"RESULT: SOLVED, {t!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
