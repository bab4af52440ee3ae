"""Seeded generator of mini-C kernels over the whole grammar ``cparser`` accepts.

Each kernel draws on every construct of the dialect: the eight binary
operators, unary ``-`` and ``~``, all six intrinsics, decimal and hex
literals (values at and above ``2**31`` included), input and pointer
parameters in any order, reassigned locals, inputs and outputs, ``return``
and ``*out`` outputs (and ``out = ...`` without the star), ``//`` and
``/* */`` comments and free layout.

Every parameter and every computed value reaches an output, so every
generated source lowers with and without the optimizer.  The generator
tracks values, not names, to keep that promise:

* a value is *pending* until an operation reads it or an output keeps it;
* reassigning a name always reads the name first, so its old value is
  consumed, never dropped;
* an output written again later is first written with a bare name, whose
  value stays pending under that name;
* the last statement folds every value still pending into its output.

Use :func:`corpus` for a deterministic list of sources and
:func:`kernel_source` for one kernel from a caller's ``random.Random``.
"""

import random
from typing import Dict, List, Optional, Set, Tuple

BINARY_OPS = ("+", "-", "*", "<<", ">>", "&", "^", "|")
UNARY_OPS = ("-", "~")
INTRINSIC_ARITY = {"sqr": 1, "abs": 1, "min": 2, "max": 2, "muladd": 3, "mulsub": 3}
#: Literals at the 32-bit edges, decimal and hex, signed and unsigned.
WIDE_LITERALS = ("2147483647", "2147483648", "4294967295", "0x7fffffff", "0x80000000", "0xFFFFFFFF")

_COMMENTS = ("// step", "/* tap */", "/* two\n   lines */", "// c[i] = a * b")


class _Expr:
    """Rendered expression text and the names it reads.

    ``bare`` is the name when the expression is just a name (it then
    aliases that name's value); ``atomic`` is False for an unparenthesised
    binary operation, which a unary operator must wrap.
    """

    __slots__ = ("text", "reads", "bare", "atomic")

    def __init__(
        self, text: str, reads: List[str], bare: Optional[str] = None, atomic: bool = True
    ):
        self.text = text
        self.reads = reads
        self.bare = bare
        self.atomic = atomic


class _KernelWriter:
    def __init__(self, rng: random.Random, name: str):
        self.rng = rng
        self.name = name
        self.value_of: Dict[str, int] = {}  # readable name -> value number
        self.pending: Set[int] = set()  # values that reach no output yet
        self.next_value = 0
        self.locals: List[str] = []
        self.lines: List[str] = []
        self.sep = "\n    " if rng.random() < 0.7 else " "

    # -- values -------------------------------------------------------------
    def _new_value(self) -> int:
        self.next_value += 1
        return self.next_value

    def _holder(self, value: int) -> str:
        return next(n for n, v in self.value_of.items() if v == value)

    def _settle(self, expr: _Expr, keep: bool) -> int:
        """Value of ``expr`` once evaluated; ``keep`` marks it as reaching an output."""
        if expr.bare is not None:
            value = self.value_of[expr.bare]
        else:
            for read in expr.reads:
                self.pending.discard(self.value_of[read])
            value = self._new_value()
            self.pending.add(value)
        if keep:
            self.pending.discard(value)
        return value

    # -- expressions --------------------------------------------------------
    def _literal(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.15:
            return rng.choice(WIDE_LITERALS)
        if roll < 0.35:
            return rng.choice(("0x", "0X")) + format(rng.randrange(256), rng.choice("xX"))
        if roll < 0.4:
            return rng.choice(("0", "00"))
        return str(rng.randrange(1, 100))

    def _leaf(self) -> _Expr:
        rng = self.rng
        if rng.random() < 0.2:
            return _Expr(self._literal(), [])
        pending = sorted(self._holder(v) for v in self.pending)
        if pending and rng.random() < 0.6:
            name = rng.choice(pending)
        else:
            name = rng.choice(sorted(self.value_of))
        return _Expr(name, [name], bare=name)

    def _expr(self, depth: int) -> _Expr:
        rng = self.rng
        roll = rng.random()
        if depth <= 0 or roll < 0.25:
            return self._leaf()
        if roll < 0.35:
            inner = self._expr(depth - 1)
            text = inner.text if inner.atomic else f"({inner.text})"
            return _Expr(rng.choice(UNARY_OPS) + text, inner.reads)
        if roll < 0.55:
            func = rng.choice(sorted(INTRINSIC_ARITY))
            args = [self._expr(depth - 1) for _ in range(INTRINSIC_ARITY[func])]
            return self._call(func, args)
        lhs, rhs = self._expr(depth - 1), self._expr(depth - 1)
        return self._binary(rng.choice(BINARY_OPS), lhs, rhs)

    def _call(self, func: str, args: List[_Expr]) -> _Expr:
        text = f"{func}({', '.join(a.text for a in args)})"
        return _Expr(text, [r for a in args for r in a.reads])

    def _binary(self, op: str, lhs: _Expr, rhs: _Expr) -> _Expr:
        rng = self.rng
        comment = f" {rng.choice(_COMMENTS[1:3])}" if rng.random() < 0.03 else ""
        text = f"{lhs.text} {op}{comment} {rhs.text}"
        if rng.random() < 0.4:
            return _Expr(f"({text})", lhs.reads + rhs.reads)
        return _Expr(text, lhs.reads + rhs.reads, atomic=False)

    def _reading(self, names: List[str], depth: int) -> _Expr:
        """An operation (never a bare name) that reads every name in ``names``."""
        rng = self.rng
        acc = self._expr(depth)
        for name in names:
            leaf = _Expr(name, [name], bare=name)
            if rng.random() < 0.3:
                func = rng.choice(sorted(INTRINSIC_ARITY))
                args = [self._expr(0) for _ in range(INTRINSIC_ARITY[func] - 1)]
                args.insert(rng.randrange(len(args) + 1), leaf)
                leaf = self._call(func, args)
            pair = (acc, leaf) if rng.random() < 0.5 else (leaf, acc)
            acc = self._binary(rng.choice(BINARY_OPS), *pair)
        return acc

    # -- statements ---------------------------------------------------------
    def _emit(self, statement: str) -> None:
        rng = self.rng
        # A one-line kernel takes block comments only: "//" would end it.
        comments = _COMMENTS if self.sep != " " else _COMMENTS[1:3]
        if rng.random() < 0.1:
            statement = f"{rng.choice(comments)}{self.sep}{statement}"
        if rng.random() < 0.08:
            statement += f" {rng.choice(comments)}"
        self.lines.append(statement)

    def _local(self) -> None:
        rng = self.rng
        if self.locals and rng.random() < 0.45 or rng.random() < 0.1:
            # Reassign (or redeclare) a local or an input; read it first.
            target = rng.choice(self.locals + sorted(set(self.value_of) - set(self.locals)))
            expr = self._reading([target], rng.randrange(2))
            prefix = "int " if target in self.locals and rng.random() < 0.15 else ""
        else:
            target = f"t{len(self.locals)}"
            self.locals.append(target)
            expr = self._expr(rng.randrange(1, 4))
            prefix = "int "
        value = self._settle(expr, keep=False)
        self.value_of[target] = value
        self._emit(f"{prefix}{target} = {expr.text};")

    def _write(self, target: str, final: bool, sink: bool) -> None:
        rng = self.rng
        if sink:
            names = sorted(self._holder(v) for v in self.pending)
            expr = self._reading(names, rng.randrange(3)) if names else self._expr(2)
        elif final:
            expr = self._expr(rng.randrange(3))
        else:
            # Overwritten later: a bare name keeps the value under that name.
            expr = self._leaf()
            while expr.bare is None:
                expr = self._leaf()
        self._settle(expr, keep=final)
        if target == "return":
            self._emit(f"return {expr.text};")
        else:
            star = "*" if rng.random() < 0.8 else ""
            self._emit(f"{star}{target} = {expr.text};")

    def write(self) -> str:
        rng = self.rng
        inputs = [f"a{i}" for i in range(rng.randint(1, 4))]
        pointers = [f"o{i}" for i in range(rng.randint(0, 3))]
        use_return = not pointers or rng.random() < 0.5
        params = [("int ", n) for n in inputs] + [("int *", n) for n in pointers]
        rng.shuffle(params)
        for name in inputs:
            self.value_of[name] = self._new_value()
            self.pending.add(self.value_of[name])

        targets = pointers + (["return"] if use_return else [])
        sink = rng.choice(targets)
        plan: List[Tuple[str, ...]] = [("local",)] * rng.randint(1, 5)
        for target in targets:
            writes = 1 if target == "return" else rng.choice((0, 1, 1, 2))
            if target == sink:
                writes -= 1
            plan += [("write", target)] * max(writes, 0)
        rng.shuffle(plan)
        remaining = {t: sum(1 for p in plan if p[1:] == (t,)) for t in targets}
        for step in plan:
            if step[0] == "local":
                self._local()
            else:
                target = step[1]
                remaining[target] -= 1
                final = remaining[target] == 0 and target != sink
                self._write(target, final=final, sink=False)
        self._write(sink, final=True, sink=True)

        kind = "int" if use_return else "void"
        header = ", ".join(f"{kind_}{name}" for kind_, name in params)
        body = self.sep.join(self.lines)
        return f"{kind} {self.name}({header}) {{{self.sep}{body}{self.sep[:1]}}}\n"


def kernel_source(rng: random.Random, name: str = "k") -> str:
    """One generated mini-C kernel named ``name``, drawn from ``rng``."""
    return _KernelWriter(rng, name).write()


def corpus(seed: int, count: int) -> List[str]:
    """``count`` generated kernel sources, the same for the same ``seed``."""
    rng = random.Random(seed)
    return [kernel_source(rng, f"k{index}") for index in range(count)]
