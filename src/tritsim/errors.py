"""Exception types shared across the library."""


class TritsimError(Exception):
    """Base class for all library errors."""


class ZeroChirality(TritsimError):
    """Chirality (0, 0) has no physical meaning."""


class MetallicTube(TritsimError):
    """Chirality is metallic (n1 - n2 divisible by 3); no threshold voltage exists."""


class OutOfRange(TritsimError):
    """Value outside the domain an operation is defined on."""


class Unresolvable(TritsimError):
    """Voltage does not sit within tolerance of any logic level."""


class WidthMismatch(TritsimError):
    """Trit vector operands have different widths."""


class Overflow(TritsimError):
    """Integer does not fit in the requested trit width."""


class WrongArity(TritsimError):
    """Cell kind does not take this number of inputs."""


class ConfigError(TritsimError):
    """Invalid simulator or builder configuration."""


class NonConvergent(TritsimError):
    """Relaxation entered a limit cycle: a conducting set repeated before the
    state reached a fixpoint, so it never will.  Carries the cycle's period
    in sweeps and the nodes that change between two of its states."""

    def __init__(self, period: int, changing: tuple[str, ...]):
        shown = ", ".join(changing[:8])
        if len(changing) > 8:
            shown += f" and {len(changing) - 8} more"
        super().__init__(f"no fixpoint: limit cycle of period {period} sweeps, changing {shown}")
        self.period = period
        self.changing = changing


class NoPath(TritsimError):
    """No enabled drive path reaches the requested output node."""


class NetlistError(TritsimError):
    """Base class for netlist parse and validation errors."""


class NetlistSyntaxError(NetlistError):
    """Malformed netlist text. Carries 1-based line and column."""

    def __init__(self, line: int, col: int, msg: str):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col
        self.msg = msg


class NetlistSemanticError(NetlistError):
    """Structurally well-formed netlist that violates a semantic rule."""

    def __init__(self, msg: str, line: int | None = None):
        if line is not None:
            super().__init__(f"line {line}: {msg}")
        else:
            super().__init__(msg)
        self.line = line
        self.msg = msg
