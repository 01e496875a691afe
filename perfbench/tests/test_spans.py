"""Self-time arithmetic and span structure of perfbench.spans."""

import pytest

from perfbench import spans


def test_self_times_subtract_child_spans():
    # cli [0, 10] holds solver [1, 6] and cli [7, 9]; solver holds two quantum spans
    functions = ["cli", "solver", "quantum"]
    result = spans.self_times(
        span_function=[0, 1, 2, 2, 0],
        span_parent=[-1, 0, 1, 1, 0],
        span_start=[0.0, 1.0, 2.0, 4.0, 7.0],
        span_end=[10.0, 6.0, 3.0, 5.0, 9.0],
        function_layer=functions,
        layers=["cli", "solver", "quantum", "svg"],
    )
    assert result == {"cli": 5.0, "solver": 3.0, "quantum": 2.0, "svg": 0.0}


def test_self_times_of_no_spans_are_zero():
    assert spans.self_times([], [], [], [], ["cli"], ["cli"]) == {"cli": 0.0}


def test_generator_spans_are_next_calls_and_calls_cross_layers():
    tracer = spans.Tracer()
    leaf = tracer.wrap(lambda: 1, "wisealice.quantum.leaf", "quantum")

    def rows(n):
        for _ in range(n):
            yield leaf()

    traced_rows = tracer.wrap(rows, "wisealice.simulate.rows", "simulate")
    helper = tracer.wrap(lambda: sum(traced_rows(3)), "wisealice.cli.helper", "cli")
    main = tracer.wrap(lambda: helper(), "wisealice.cli.main", "cli")

    assert main() == 3
    assert tracer.invocations == [3, 1, 1, 1]
    assert tracer.yields[tracer.functions.index("wisealice.simulate.rows")] == 3
    # helper is called from inside cli, so only main enters that layer
    assert tracer.layer_calls == {**{layer: 0 for layer in spans.LAYERS},
                                  "cli": 1, "simulate": 1, "quantum": 3}
    # main, helper, four next() spans (the last one ends the generator), three leaves
    assert list(tracer.span_function) == [3, 2, 1, 0, 1, 0, 1, 0, 1]
    assert list(tracer.span_parent) == [-1, 0, 1, 2, 1, 4, 1, 6, 1]
    total = tracer.span_end[0] - tracer.span_start[0]
    assert sum(tracer.layer_self_times().values()) == pytest.approx(total, rel=1e-9)
