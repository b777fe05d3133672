"""Report bytes of the commands whose payload is a result dataclass.

Each command runs on a small fixed input and its rendered report is compared
byte for byte with a literal, with ``timing_ms`` zeroed and the input path
replaced by ``IN``.  The literals pin the field names, the key order, the
JSON rendering of tuples and arrays, and every number.
"""

import json

import numpy as np
import pytest

from mebkit.cli import dispatch, render_report
from mebkit.pointio import write_points

POINTS = {
    "cloud": [[0.0, 0.0], [0.5, 0.25], [-0.25, 0.5], [0.25, -0.5], [-0.5, -0.25], [0.125, 0.375]],
    "far": [[0.0, 0.0], [0.5, 0.25], [-0.25, 0.5], [0.25, -0.5], [5.0, 5.0]],
    "pairs": [[0.0, 0.0], [0.5, 0.0], [6.0, 0.0], [6.5, 0.5], [0.0, 6.0], [0.5, 6.5]],
    "plane": [[0.0, 0.0], [3.0, 1.0], [1.0, 4.0], [-2.0, 2.0], [1.0, 1.0], [2.5, -1.5]],
    "radon": [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [1.0, 1.0]],
}
BOXES = {
    "boxes": [{"lower": [0, 0], "upper": [2, 2]}, {"lower": [1, -1], "upper": [3, 1.5]},
              {"lower": [0.5, 0.5], "upper": [1.5, 4]}],
    "apart": [{"lower": [0, 0], "upper": [1, 1]}, {"lower": [2, 0], "upper": [3, 1]},
              {"lower": [0, 0], "upper": [3, 0.5]}],
}
CASES = {
    "1s-accept": ["test-cluster", "--mode", "1s", "--eps", "0.5", "--input", "cloud"],
    "1s-reject": ["test-cluster", "--mode", "1s", "--eps", "0.5", "--seed", "5", "--input", "far"],
    "kg-accept": ["test-cluster", "--mode", "kg", "--k", "3", "--c", "0.5", "--input", "pairs"],
    "kg-reject": ["test-cluster", "--mode", "kg", "--k", "2", "--c", "0.5", "--input", "pairs"],
    "1s-box-accept": ["test-cluster", "--mode", "1s", "--body", "box", "--eps", "0.5", "--input", "cloud"],
    "1s-box-reject": ["test-cluster", "--mode", "1s", "--body", "box", "--half-extent", "0.5", "--eps", "0.5",
                      "--seed", "5", "--input", "far"],
    "kg-box-accept": ["test-cluster", "--mode", "kg", "--body", "box", "--k", "3", "--c", "0.5",
                      "--input", "pairs"],
    "1s-trials": ["test-cluster", "--mode", "1s", "--eps", "0.5", "--trials", "2", "--seed", "5",
                  "--input", "far"],
    "kg-trials": ["test-cluster", "--mode", "kg", "--k", "2", "--c", "0.5", "--trials", "2", "--input", "pairs"],
    "brute": ["diameter", "--algo", "brute", "--input", "plane"],
    "calipers": ["diameter", "--algo", "calipers", "--input", "plane"],
    "sweep": ["diameter", "--algo", "sweep", "--seed", "2", "--input", "plane"],
    "radon": ["convexity", "radon", "--input", "radon"],
    "helly": ["convexity", "helly-boxes", "--input", "boxes"],
    "helly-apart": ["convexity", "helly-boxes", "--input", "apart"],
}
EXPECTED = {
    "1s-accept": """\
{
  "command": "test-cluster",
  "parameters": {
    "body": "ball",
    "c": 0.01,
    "delta": 0.1,
    "eps": 0.5,
    "half_extent": 1.0,
    "input": "IN",
    "k": 2,
    "mode": "1s",
    "radius": 1.0,
    "seed": 0,
    "trials": 1
  },
  "result": {
    "outcome": "accept",
    "rounds_used": 19,
    "seed": 0,
    "witness": null,
    "witness_indices": null
  },
  "seed": 0,
  "timing_ms": 0.0,
  "tool_version": "0.1.0"
}
""",
    "1s-reject": """\
{
  "command": "test-cluster",
  "parameters": {
    "body": "ball",
    "c": 0.01,
    "delta": 0.1,
    "eps": 0.5,
    "half_extent": 1.0,
    "input": "IN",
    "k": 2,
    "mode": "1s",
    "radius": 1.0,
    "seed": 5,
    "trials": 1
  },
  "result": {
    "outcome": "reject",
    "rounds_used": 4,
    "seed": 5,
    "witness": [
      [
        -0.25,
        0.5
      ],
      [
        0.25,
        -0.5
      ],
      [
        5.0,
        5.0
      ]
    ],
    "witness_indices": [
      2,
      3,
      4
    ]
  },
  "seed": 5,
  "timing_ms": 0.0,
  "tool_version": "0.1.0"
}
""",
    "kg-accept": """\
{
  "command": "test-cluster",
  "parameters": {
    "body": "ball",
    "c": 0.5,
    "delta": 0.1,
    "eps": 0.1,
    "half_extent": 1.0,
    "input": "IN",
    "k": 3,
    "mode": "kg",
    "radius": 1.0,
    "seed": 0,
    "trials": 1
  },
  "result": {
    "outcome": "accept",
    "rounds_used": 5,
    "seed": 0,
    "witness": null,
    "witness_indices": null
  },
  "seed": 0,
  "timing_ms": 0.0,
  "tool_version": "0.1.0"
}
""",
    "kg-reject": """\
{
  "command": "test-cluster",
  "parameters": {
    "body": "ball",
    "c": 0.5,
    "delta": 0.1,
    "eps": 0.1,
    "half_extent": 1.0,
    "input": "IN",
    "k": 2,
    "mode": "kg",
    "radius": 1.0,
    "seed": 0,
    "trials": 1
  },
  "result": {
    "outcome": "reject",
    "rounds_used": 2,
    "seed": 0,
    "witness": [
      [
        0.5,
        0.0
      ],
      [
        6.5,
        0.5
      ],
      [
        0.5,
        6.5
      ]
    ],
    "witness_indices": [
      1,
      3,
      5
    ]
  },
  "seed": 0,
  "timing_ms": 0.0,
  "tool_version": "0.1.0"
}
""",
    "1s-box-accept": """\
{
  "command": "test-cluster",
  "parameters": {
    "body": "box",
    "c": 0.01,
    "delta": 0.1,
    "eps": 0.5,
    "half_extent": 1.0,
    "input": "IN",
    "k": 2,
    "mode": "1s",
    "radius": 1.0,
    "seed": 0,
    "trials": 1
  },
  "result": {
    "outcome": "accept",
    "rounds_used": 19,
    "seed": 0,
    "witness": null,
    "witness_indices": null
  },
  "seed": 0,
  "timing_ms": 0.0,
  "tool_version": "0.1.0"
}
""",
    "1s-box-reject": """\
{
  "command": "test-cluster",
  "parameters": {
    "body": "box",
    "c": 0.01,
    "delta": 0.1,
    "eps": 0.5,
    "half_extent": 0.5,
    "input": "IN",
    "k": 2,
    "mode": "1s",
    "radius": 1.0,
    "seed": 5,
    "trials": 1
  },
  "result": {
    "outcome": "reject",
    "rounds_used": 4,
    "seed": 5,
    "witness": [
      [
        -0.25,
        0.5
      ],
      [
        0.25,
        -0.5
      ],
      [
        5.0,
        5.0
      ]
    ],
    "witness_indices": [
      2,
      3,
      4
    ]
  },
  "seed": 5,
  "timing_ms": 0.0,
  "tool_version": "0.1.0"
}
""",
    "kg-box-accept": """\
{
  "command": "test-cluster",
  "parameters": {
    "body": "box",
    "c": 0.5,
    "delta": 0.1,
    "eps": 0.1,
    "half_extent": 1.0,
    "input": "IN",
    "k": 3,
    "mode": "kg",
    "radius": 1.0,
    "seed": 0,
    "trials": 1
  },
  "result": {
    "outcome": "accept",
    "rounds_used": 5,
    "seed": 0,
    "witness": null,
    "witness_indices": null
  },
  "seed": 0,
  "timing_ms": 0.0,
  "tool_version": "0.1.0"
}
""",
    "1s-trials": """\
{
  "command": "test-cluster",
  "parameters": {
    "body": "ball",
    "c": 0.01,
    "delta": 0.1,
    "eps": 0.5,
    "half_extent": 1.0,
    "input": "IN",
    "k": 2,
    "mode": "1s",
    "radius": 1.0,
    "seed": 5,
    "trials": 2
  },
  "result": {
    "accept_count": 0,
    "trials": [
      {
        "outcome": "reject",
        "rounds_used": 1,
        "seed": 6443483751513631536,
        "witness": [
          [
            0.0,
            0.0
          ],
          [
            0.5,
            0.25
          ],
          [
            5.0,
            5.0
          ]
        ],
        "witness_indices": [
          0,
          1,
          4
        ]
      },
      {
        "outcome": "reject",
        "rounds_used": 1,
        "seed": 7116664326971585574,
        "witness": [
          [
            0.0,
            0.0
          ],
          [
            -0.25,
            0.5
          ],
          [
            5.0,
            5.0
          ]
        ],
        "witness_indices": [
          0,
          2,
          4
        ]
      }
    ]
  },
  "seed": 5,
  "timing_ms": 0.0,
  "tool_version": "0.1.0"
}
""",
    "kg-trials": """\
{
  "command": "test-cluster",
  "parameters": {
    "body": "ball",
    "c": 0.5,
    "delta": 0.1,
    "eps": 0.1,
    "half_extent": 1.0,
    "input": "IN",
    "k": 2,
    "mode": "kg",
    "radius": 1.0,
    "seed": 0,
    "trials": 2
  },
  "result": {
    "accept_count": 0,
    "trials": [
      {
        "outcome": "reject",
        "rounds_used": 4,
        "seed": 1831472134309618078,
        "witness": [
          [
            0.5,
            0.0
          ],
          [
            6.5,
            0.5
          ],
          [
            0.5,
            6.5
          ]
        ],
        "witness_indices": [
          1,
          3,
          5
        ]
      },
      {
        "outcome": "reject",
        "rounds_used": 2,
        "seed": 3734546797732971597,
        "witness": [
          [
            0.5,
            0.0
          ],
          [
            6.5,
            0.5
          ],
          [
            0.5,
            6.5
          ]
        ],
        "witness_indices": [
          1,
          3,
          5
        ]
      }
    ]
  },
  "seed": 0,
  "timing_ms": 0.0,
  "tool_version": "0.1.0"
}
""",
    "brute": """\
{
  "command": "diameter",
  "parameters": {
    "algo": "brute",
    "eps": 0.1,
    "input": "IN",
    "seed": 0
  },
  "result": {
    "exact": true,
    "pair": [
      2,
      5
    ],
    "pairs_at_max": 2,
    "value": 5.70087712549569
  },
  "seed": 0,
  "timing_ms": 0.0,
  "tool_version": "0.1.0"
}
""",
    "calipers": """\
{
  "command": "diameter",
  "parameters": {
    "algo": "calipers",
    "eps": 0.1,
    "input": "IN",
    "seed": 0
  },
  "result": {
    "exact": true,
    "pair": [
      2,
      5
    ],
    "pairs_at_max": 2,
    "value": 5.70087712549569
  },
  "seed": 0,
  "timing_ms": 0.0,
  "tool_version": "0.1.0"
}
""",
    "sweep": """\
{
  "command": "diameter",
  "parameters": {
    "algo": "sweep",
    "eps": 0.1,
    "input": "IN",
    "seed": 2
  },
  "result": {
    "exact": false,
    "pair": [
      2,
      5
    ],
    "pairs_at_max": 1,
    "value": 5.70087712549569
  },
  "seed": 2,
  "timing_ms": 0.0,
  "tool_version": "0.1.0"
}
""",
    "radon": """\
{
  "command": "convexity",
  "parameters": {
    "input": "IN",
    "r": 4,
    "seed": 0,
    "which": "radon"
  },
  "result": {
    "left": [
      3
    ],
    "right": [
      0,
      1,
      2
    ],
    "witness": [
      1.0,
      1.0
    ]
  },
  "seed": 0,
  "timing_ms": 0.0,
  "tool_version": "0.1.0"
}
""",
    "helly": """\
{
  "command": "convexity",
  "parameters": {
    "input": "IN",
    "r": 4,
    "seed": 0,
    "which": "helly-boxes"
  },
  "result": {
    "common_point": [
      1.25,
      1.0
    ],
    "family_intersects": true,
    "subfamilies_intersect": true
  },
  "seed": 0,
  "timing_ms": 0.0,
  "tool_version": "0.1.0"
}
""",
    "helly-apart": """\
{
  "command": "convexity",
  "parameters": {
    "input": "IN",
    "r": 4,
    "seed": 0,
    "which": "helly-boxes"
  },
  "result": {
    "common_point": null,
    "family_intersects": false,
    "subfamilies_intersect": false
  },
  "seed": 0,
  "timing_ms": 0.0,
  "tool_version": "0.1.0"
}
""",
}


@pytest.fixture
def inputs(tmp_path):
    paths = {}
    for name, rows in POINTS.items():
        paths[name] = str(tmp_path / f"{name}.csv")
        write_points(paths[name], np.array(rows))
    for name, boxes in BOXES.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump({"boxes": boxes}, fh)
    return paths


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes(case, inputs):
    argv = CASES[case][:-1] + [inputs[CASES[case][-1]]]
    report, code = dispatch(argv)
    assert code == 0
    report.timing_ms = 0.0
    report.parameters["input"] = "IN"
    assert render_report(report) == EXPECTED[case]
