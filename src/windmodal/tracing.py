"""Tracing one model evaluation into one straight-line Python function.

``DynamicSystem.generate_rhs`` runs ``DynamicSystem._evaluate`` once on the
values of this module, with the operations ``devices.TRACE``: each
operation records on a ``Tape`` the ``SCALAR`` form of that operation,
exactly as written, and the device equations run as they always do.
``Tape.function`` writes the tape out as the body of one function with no
loop.  A value used once is inlined into the expression that uses it; one
used more than once gets a local name, and so does each operation that can
raise (a division, ``cos``, ``abs`` of a complex, ...), which stays a
statement in the order it ran, so the function raises what the traced
pass raises, the first error first.  The same operations run on the same
operands in the same order, so the results have the bits of the traced
pass on Python numbers.

Every number the traced code reads (a parameter, a setpoint, a literal,
the device rows) enters the function as a default argument, and every
function it calls as a name bound in its globals, which hold nothing else
(no builtins).  So the source holds no value and no text of a scenario and
depends only on the model's structure: one compiled code object serves
every system of that structure and every grid, cached by its source.

A traced value stands for no number: an equation that branches in Python
on a state, or converts one, raises ``TraceError`` when the function is
built instead of silently compiling one branch.
"""

from __future__ import annotations

import functools
from types import CodeType, FunctionType

# node kinds: a parameter of the function; an operation that cannot raise,
# and one that can; a statement that raises on a condition; an unpacking
# of a sequence, and one of its items
PARAM, PURE, RAISES, GUARD, UNPACK, ITEM = range(6)


class TraceError(TypeError):
    """The traced code asked a traced value for a number or a truth
    value."""


def _binary(symbol, kind=PURE):
    template = "{0} " + symbol + " {1}"

    def forward(self, other):
        return self.tape.record(template, (self, other), kind)

    def reflected(self, other):
        return self.tape.record(template, (other, self), kind)
    return forward, reflected


class Traced:
    """The value of node ``node`` of ``tape``: arithmetic, comparisons,
    ``|``, ``.real`` and ``.imag`` record themselves."""

    __slots__ = ("tape", "node")
    __array_ufunc__ = None          # numpy defers to the reflected operators

    def __init__(self, tape, node):
        self.tape, self.node = tape, node

    def _number(self, *args):
        raise TraceError(
            "a traced value stands for no number: the model branches in "
            "Python on a state or converts one; write the choice with the "
            "ops' where, max or min")

    __bool__ = __float__ = __complex__ = __int__ = __index__ = _number

    __add__, __radd__ = _binary("+")
    __sub__, __rsub__ = _binary("-")
    __mul__, __rmul__ = _binary("*")
    __truediv__, __rtruediv__ = _binary("/", RAISES)
    __mod__, __rmod__ = _binary("%", RAISES)
    __or__, __ror__ = _binary("|")
    __lt__, __le__ = _binary("<")[0], _binary("<=")[0]
    __gt__, __ge__ = _binary(">")[0], _binary(">=")[0]
    __eq__, __ne__ = _binary("==")[0], _binary("!=")[0]

    def __neg__(self):
        return self.tape.record("-{0}", (self,))

    real = property(lambda self: self.tape.record("{0}.real", (self,)))
    imag = property(lambda self: self.tape.record("{0}.imag", (self,)))


class TracedVector(Traced):
    """A traced parameter holding ``size`` numbers; its ``ndim`` of 0
    selects ``devices.OPS[0]``, ``TRACE``."""

    __slots__ = ("size",)
    ndim = 0


def traced(template, scalar, kind=PURE):
    """The ``TRACE`` form of the ``SCALAR`` operation ``scalar``: the
    operation recorded with ``template``, or ``scalar`` itself when no
    operand is traced."""
    def record(*args):
        # a list is copied: the traced code may change it afterwards
        operands = tuple(tuple(a) if type(a) is list else a for a in args)
        for a in operands:
            for item in a if type(a) is tuple else (a,):
                if isinstance(item, Traced):
                    return item.tape.record(template, operands, kind)
        return scalar(*args)
    return record


@functools.lru_cache(maxsize=64)       # the templates of the ops
def _occurrences(template):
    """How often each operand appears in ``template``."""
    return tuple(template.count("{%d}" % i) for i in range(4))


def _count(uses, template, operands):
    """Count a use of each traced value among ``operands`` for each time
    its place appears in ``template``."""
    for a, n in zip(operands, _occurrences(template)):
        if type(a) is tuple:
            for item in a:
                if isinstance(item, Traced):
                    uses[item.node] += n
        elif isinstance(a, Traced):
            uses[a.node] += n


class Tape:
    """The operations of one traced evaluation, in the order they ran.
    Each node is ``(kind, template, operands)``; a template's ``{i}`` is
    its operand ``i``: a traced value, a number or a tuple of those.
    ``uses`` counts where each node appears in the templates of later
    nodes."""

    def __init__(self):
        self.nodes: list[tuple] = []
        self.uses: list[int] = []

    def _add(self, kind, template, operands):
        self.nodes.append((kind, template, operands))
        self.uses.append(0)
        return Traced(self, len(self.nodes) - 1)

    def parameter(self, name, size=None):
        """The function's next parameter; with a ``size``, a
        ``TracedVector``."""
        value = self._add(PARAM, name, ())
        if size is None:
            return value
        x = TracedVector(self, value.node)
        x.size = size
        return x

    def record(self, template, operands, kind=PURE):
        """A traced operation on ``operands``, a tuple."""
        _count(self.uses, template, operands)
        return self._add(kind, template, operands)

    def unpack(self, template, operands, n):
        """The ``n`` items of the sequence that ``template`` gives, each a
        local of the function, recorded after it; each is one use of it."""
        seq = self.record(template, operands, UNPACK)
        self.uses[seq.node] = n
        return [self._add(ITEM, None, (seq,)) for _ in range(n)]

    def function(self, output, names):
        """The traced evaluation as a function of the parameters that
        returns ``output``, with ``names`` as its globals."""
        source, constants = self.source(output)
        # the nodes' traced values refer to the tape: drop them, so the
        # tape is freed now rather than by the cycle collector
        self.nodes.clear()
        return FunctionType(_code(source), {"__builtins__": {}, **names},
                            "generated", tuple(constants))

    def source(self, output):
        """``(source, constants)``: the function's text, and the values of
        its default arguments, in order.  A value that nothing uses and
        that cannot raise is not written, but the values it reads keep
        that use: the traced code should compute nothing it drops."""
        nodes = self.nodes
        uses = self.uses.copy()
        uses[output.node] += 1

        names: dict[int, str] = {}
        params, constants, body = [], [], []

        def text(a):
            if type(a) is tuple:
                return "[" + ", ".join(map(text, a)) + "]"
            if not isinstance(a, Traced):
                constants.append(a)
                return f"c{len(constants) - 1}"
            name = names.get(a.node)
            return name if name else "(" + render(a.node) + ")"

        def render(k):
            _, template, operands = nodes[k]
            return template.format(*map(text, operands))

        def local(k):
            names[k] = f"t{k}"
            return names[k]

        for k, (kind, template, operands) in enumerate(nodes):
            if kind == PARAM:
                names[k] = template
                params.append(template)
            elif kind == UNPACK and uses[k]:
                # its items follow it on the tape, as many as it had uses
                targets = [local(j) if uses[j] else "_"
                           for j in range(k + 1, k + 1 + self.uses[k])]
                body.append(f"({', '.join(targets)},) = {render(k)}")
            elif kind == GUARD:
                body.append(render(k))
            elif kind == RAISES or kind == PURE and uses[k] > 1:
                expr = render(k)
                body.append(f"{local(k)} = {expr}")
        body.append(f"return {text(output)}")
        signature = ", ".join(params + [f"c{i}"
                                        for i in range(len(constants))])
        return "".join([f"def generated({signature}):\n",
                        *(f"    {line}\n" for line in body)]), constants


@functools.cache
def _code(source: str) -> CodeType:
    """The code object of the one function that ``source`` defines, kept
    for every source: one per model structure, and a run builds few."""
    module = compile(source, "<generated>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))
