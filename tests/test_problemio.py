"""Problem documents: the keys they hold and the grid they give."""

import pytest

from poslab import GridSpec, ParseError, problem_from_dict
from poslab.semialg import default_points_per_axis

DOC = {"n": 2, "objective": "x1 + x2", "constraints": ["1 - x1^2 - x2^2"]}


@pytest.mark.parametrize(
    "extra, named",
    [
        ({"constraint": ["x1"]}, "'constraint'"),
        ({"options": {}}, "'options'"),
        ({"options": {"points_per_axis": 11}}, "'options'"),
        ({"Box": [[0, 1], [0, 1]], "name": "p"}, "'Box', 'name'"),
    ],
)
def test_unknown_keys_are_refused(extra, named):
    with pytest.raises(ParseError, match=named):
        problem_from_dict({**DOC, **extra})


@pytest.mark.parametrize(
    "field, value",
    [("n", 2.0), ("n", 1.7), ("n", True), ("n", "2"), ("constraints", "1"),
     ("constraints", {"g": "1"})],
)
def test_values_of_the_wrong_type_are_refused(field, value):
    with pytest.raises(ParseError, match=f'"{field}"'):
        problem_from_dict({**DOC, field: value})


def test_grid_spec_defaults_and_points_per_axis():
    doc = problem_from_dict(DOC)
    assert doc.grid_spec() == GridSpec(default_points_per_axis(2), doc.box, 3)
    spec = doc.grid_spec(11)
    assert (spec.points_per_axis, spec.refinement_rounds, spec.box) == (11, 3, doc.box)


@pytest.mark.parametrize(
    "box", [[[1, -1]], [[0, 0]], [[-1, "inf"]], [["-inf", 1]], [["nan", 1]]]
)
def test_a_box_that_is_not_a_finite_interval_is_refused(box):
    # the rule of GridSpec, applied when the document is read
    with pytest.raises(ParseError, match="invalid box interval"):
        problem_from_dict({"n": 1, "objective": "x1", "box": box})
