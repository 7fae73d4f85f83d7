"""Regenerate the committed test fixtures.

Run from the repository root:

    python3 tools/gen_fixtures.py

Writes tests/fixtures/la_witness.json (first grid disagreement between the
balanced-optimal and temperature-tau logit-adjusted labels, per tau) and
tests/fixtures/figure1_oracle.json (the best-in-class boundary angles on
the skewed two-dimensional sample at m = 50,000, norm 100).
"""

from pathlib import Path

from imbloss import verify
from imbloss.datagen import figure1_distribution, write_json
from imbloss.theory import (bayes_balanced_label, bayes_la_label,
                            find_la_disagreement)

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def la_witness():
    out = {}
    for tau in (0.5, 2.0):
        point = find_la_disagreement(tau)
        out[str(tau)] = {
            "cond": point.cond.tolist(),
            "priors": point.priors.tolist(),
            "la_label": bayes_la_label(point, tau),
            "balanced_label": bayes_balanced_label(point),
        }
    return out


def figure1_oracle(data_seed=2, m=50_000, norm_bound=100.0):
    data = figure1_distribution(m, seed=data_seed)
    records, models = verify.figure1_angles(data, norm_bound)
    out = {"data_seed": data_seed, "m": m, "norm_bound": norm_bound}
    for r in records[:-1]:  # the last one is the thresholds record
        out[r["objective"].lower()] = {
            "angle_degrees": r["angle_degrees"],
            "objective_value": r["objective_value"],
            "weights": models[r["objective"]].weights.tolist(),
        }
    return out


def main():
    write_json(FIXTURES / "la_witness.json", la_witness())
    write_json(FIXTURES / "figure1_oracle.json", figure1_oracle())
    print(f"fixtures written to {FIXTURES}")


if __name__ == "__main__":
    main()
