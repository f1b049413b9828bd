"""README's library example runs as printed, its signatures are the
package's, and its config and germ file examples parse."""

import inspect
import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import markov_curves
from markov_curves import builtin_germs, parse_germ_text
from markov_curves.experiments_cli import parse_config_text

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(language):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"```{language}\n(.*?)```", text, flags=re.DOTALL)


def test_library_example_runs():
    (block,) = blocks("python")
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed[0].startswith("72.008"), printed
    # One Siciak batch, two points: value and facet slack per line.
    value, slack = map(float, printed[3].split())
    assert abs(value - float(printed[2])) <= 0.02 and slack == 0.0
    assert len(printed[4].split()) == 2


def test_signatures_match_the_package():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"The signatures[^\n]*\n\n```\n(.*?)```", text,
                          flags=re.DOTALL)
    checked = []
    for line in block.splitlines():
        code = line.split("#")[0]
        if not code.strip():
            continue  # the comment of the line above, continued
        printed = re.findall(r"(\w+)(\([^)]*\))", code)
        assert printed, line
        for name, arguments in printed:
            function = getattr(markov_curves, name)
            assert arguments == str(inspect.signature(function)), name
            checked.append(name)
    assert "load_germ" in checked and len(checked) == 14


def test_config_and_germ_examples_parse():
    config, germ_text = blocks("ini")
    (scenario,) = parse_config_text(config)
    assert (scenario.name, scenario.study) == ("cusp_scan", "markov_scan")
    assert scenario.degrees == (2, 3, 4, 6, 8, 12)
    assert scenario.epsilons == (0.5, 0.25, 0.125, 0.0625)
    assert scenario.density == 120
    cusp = builtin_germs()["cusp_2_3"]
    assert scenario.germ == cusp
    germ = parse_germ_text(germ_text)
    assert (germ.star_plus, germ.star_minus) == (cusp.star_plus,
                                                 cusp.star_minus)
    assert germ.point_class == cusp.point_class
    for z in (0.0, 0.3, -0.5j, 0.2 + 0.7j):
        np.testing.assert_allclose(germ.evaluate(z), cusp.evaluate(z),
                                   rtol=0, atol=1e-15)
