"""Report bytes of the commands whose payload is a result dataclass, and of
``gen`` with its points inline.

Each command runs on a small fixed input and its rendered report is compared
byte for byte with a literal, with ``timing_ms`` zeroed and the input path
replaced by ``IN``.  The literals pin the field names, the key order, the
JSON rendering of tuples and arrays, and every number.  The ``gen`` reports
run through ``main`` and carry 1-d and 2-d arrays, nested in ``labels``.
"""

import json
import re

import numpy as np
import pytest

from mebkit.cli import dispatch, main, render_report
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
    "kg-box-reject": ["test-cluster", "--mode", "kg", "--body", "box", "--k", "2", "--c", "0.5",
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
    "rounds_used": 7,
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
    "rounds_used": 7,
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
    "kg-box-reject": """\
{
  "command": "test-cluster",
  "parameters": {
    "body": "box",
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
        "rounds_used": 2,
        "seed": 1831472134309618078,
        "witness": [
          [
            0.5,
            0.0
          ],
          [
            6.0,
            0.0
          ],
          [
            0.0,
            6.0
          ]
        ],
        "witness_indices": [
          1,
          2,
          4
        ]
      },
      {
        "outcome": "reject",
        "rounds_used": 3,
        "seed": 3734546797732971597,
        "witness": [
          [
            0.0,
            0.0
          ],
          [
            6.5,
            0.5
          ],
          [
            0.0,
            6.0
          ]
        ],
        "witness_indices": [
          0,
          3,
          4
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

GEN_CASES = {
    "gen-clusterable": ["gen", "--kind", "clusterable", "--n", "4", "--d", "2", "--k1", "2", "--eps", "0.5",
                        "--seed", "3"],
    "gen-inline": ["gen", "--kind", "uniform-ball", "--n", "3", "--d", "2", "--seed", "1"],
}
GEN_EXPECTED = {
    "gen-clusterable": """\
{
  "command": "gen",
  "parameters": {
    "d": 2,
    "eps": 0.5,
    "k1": 2,
    "kind": "clusterable",
    "n": 4,
    "seed": 3
  },
  "result": {
    "d": 2,
    "kind": "clusterable",
    "labels": {
      "certificate": {
        "assignment": [
          0,
          1,
          0,
          0
        ],
        "centers": [
          [
            2.937472337969017,
            -2.038770977386421
          ],
          [
            2.8488973616837345,
            3.916740082920078
          ]
        ],
        "radius": 0.5
      },
      "kind": "clusterable"
    },
    "n": 4,
    "points": [
      [
        2.706794527291199,
        -2.4649016032638915
      ],
      [
        2.7725249075816145,
        3.662183295957852
      ],
      [
        3.246061461013777,
        -1.7735032721900845
      ],
      [
        3.3759562747892717,
        -1.9433134340695415
      ]
    ]
  },
  "seed": 3,
  "timing_ms": 0.0,
  "tool_version": "0.1.0"
}
""",
    "gen-inline": """\
{
  "command": "gen",
  "parameters": {
    "d": 2,
    "kind": "uniform-ball",
    "n": 3,
    "seed": 1
  },
  "result": {
    "d": 2,
    "kind": "uniform-ball",
    "labels": {
      "kind": "uniform-ball"
    },
    "n": 3,
    "points": [
      [
        -0.5347709556154316,
        -0.7926297028191382
      ],
      [
        -0.33274423554961907,
        0.12957793289771077
      ],
      [
        0.7569839450709958,
        0.0482136669802038
      ]
    ]
  },
  "seed": 1,
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


@pytest.mark.parametrize("case", sorted(GEN_CASES))
def test_gen_report_bytes(case, capsys):
    assert main(GEN_CASES[case]) == 0
    text = capsys.readouterr().out
    assert re.sub(r'"timing_ms": [^,]+,', '"timing_ms": 0.0,', text) == GEN_EXPECTED[case]


def zero_timing(text):
    return re.sub(r'"timing_ms": [^,]+,', '"timing_ms": 0.0,', text)


STREAM_GEN = ["gen", "--kind", "uniform-ball", "--n", "50000", "--d", "3", "--seed", "1"]


@pytest.mark.parametrize("case", sorted(CASES) + ["gen-50000"])
def test_main_writes_the_rendered_report(case, inputs, tmp_path, capsys):
    # main streams the report chunk by chunk; the bytes are render_report's
    argv = STREAM_GEN if case == "gen-50000" else CASES[case][:-1] + [inputs[CASES[case][-1]]]
    report, code = dispatch(argv)
    expected = zero_timing(render_report(report))
    assert main(argv) == code
    assert zero_timing(capsys.readouterr().out) == expected
    path = tmp_path / "report.json"
    assert main(argv + ["--output", str(path)]) == code
    assert capsys.readouterr().out == ""
    assert zero_timing(path.read_text(encoding="utf-8")) == expected
