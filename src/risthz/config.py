"""System configuration: physical, RIS, and traffic parameters.

All gains and powers are stored in linear units (W, dimensionless);
dB values are converted at the I/O boundary only.  Defaults correspond
to the standard simulation setup (300 GHz carrier, 10 GHz bandwidth,
40000-element RIS).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace

SPEED_OF_LIGHT = 3e8  # m/s

# Frequency range over which the scalar molecular-absorption coefficient
# is considered valid.
F_VALID_MIN = 100e9
F_VALID_MAX = 450e9

# Simulation run sizes, transmission schemes and the strict-HC study's
# defaults, here so the CLI's parser can read them without importing the
# simulator or the solver; ``experiments`` and ``queueing`` re-export them.
SCHEMES = ("mcsc", "time_sharing")
DEFAULT_N_SLOTS = 20000
MIN_DIAGNOSTIC_SLOTS = 100  # shortest trace given a stability verdict
STRICT_HC_ALPHA_MIN = 0.3   # time sharing's HC fraction, MC-SC's least one
STRICT_HC_TARGET = 0.05     # HC outage target held by beamwidth adaptation


class ConfigError(ValueError):
    """Raised for invalid or unknown configuration entries."""


@dataclass(frozen=True)
class SystemConfig:
    f: float = 300e9            # carrier frequency [Hz]
    B: float = 10e9             # bandwidth [Hz]
    P_max: float = 0.01         # total transmit power [W] (10 dBm)
    N0: float = 1e-3 * 10 ** (-174 / 10)  # noise PSD [W/Hz] (-174 dBm/Hz)
    G_B: float = 1e4            # BS antenna gain, linear (40 dB)
    G_U: float = 10 ** 3.5      # UE antenna gain, linear (35 dB)
    d_BU: float = 15.0          # BS-UE distance [m]
    d_BR: float = 15.8          # BS-RIS distance [m]
    d_RU: float = 5.0           # RIS-UE distance [m]
    k_a: float = 0.0012         # molecular absorption coefficient [1/m]
    N_R: int = 40000            # RIS element count (perfect square)
    q_d: float = 0.3            # direct-path blockage probability
    q_r: float = 0.1            # RIS-path blockage probability
    sigma_md: float = 0.1       # direct-beam pointing-error Rayleigh scale [m]
    sigma_mr: float = 0.2       # reflected-beam pointing-error Rayleigh scale [m]
    w_r: float = 0.8            # reflected-beam radius at UE [m]
    alpha: float = 0.5          # fraction of arrivals classified high-criticality
    A_bar: float = 800.0        # mean packet arrival rate [packets/slot]
    M: float = 5e6              # packet size [bit]
    T: float = 0.1              # slot duration [s]

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        positive = [
            "f", "B", "P_max", "N0", "G_B", "G_U", "d_BU", "d_BR", "d_RU",
            "k_a", "sigma_md", "sigma_mr", "w_r", "M", "T",
        ]
        problems = [
            f"{f.name} must be finite, got {getattr(self, f.name)}"
            for f in fields(self)
            if not math.isfinite(getattr(self, f.name))
        ]
        for name in positive:
            if not getattr(self, name) > 0:
                problems.append(f"{name} must be strictly positive")
        for name in ("q_d", "q_r", "alpha"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                problems.append(f"{name} must lie in [0, 1], got {v}")
        if self.A_bar < 0:
            problems.append("A_bar must be nonnegative")
        if not (0 < self.N_R < math.inf and math.isqrt(int(self.N_R)) ** 2 == self.N_R):
            problems.append(f"N_R must be a positive perfect square, got {self.N_R}")
        if problems:
            raise ConfigError("; ".join(problems))
        if not F_VALID_MIN <= self.f <= F_VALID_MAX:
            warnings.warn(
                f"carrier frequency {self.f / 1e9:.1f} GHz is outside the "
                "100-450 GHz validity range of the absorption coefficient",
                stacklevel=2,
            )

    def with_(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given fields replaced (and re-validated)."""
        return replace(self, **kwargs)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_FIELD_NAMES = {f.name for f in fields(SystemConfig)}

# Fields also accepted in dB / dBm form in config files: the key, the
# conversion to the linear field, and the default in dB that
# ``default_config_text`` writes.
_DB_FORMS = {
    "P_max": ("P_max_dbm", lambda x: 1e-3 * 10 ** (x / 10), 10.0),
    "N0": ("N0_dbm", lambda x: 1e-3 * 10 ** (x / 10), -174.0),
    "G_B": ("G_B_db", lambda x: 10 ** (x / 10), 40.0),
    "G_U": ("G_U_db", lambda x: 10 ** (x / 10), 35.0),
}
_DB_KEYS = {key: (field, to_linear) for field, (key, to_linear, _) in _DB_FORMS.items()}


def parse_config_text(text: str) -> SystemConfig:
    """Parse a flat ``key = value`` document, overriding the defaults
    field-wise.

    Lines starting with ``#`` (or inline ``#`` comments) are ignored.
    Unknown keys raise :class:`ConfigError` listing every offender.  A
    value that does not parse, or a field set twice (by a repeated key, or
    in both linear and dB form), raises it naming the line.
    """
    overrides: dict = {}
    set_by: dict[str, str] = {}
    unknown = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        field, to_linear = _DB_KEYS.get(key, (key, None))
        if field not in _FIELD_NAMES:
            unknown.append(key)
            continue
        parse = int if key == "N_R" else float
        try:
            number = parse(value)
            overrides[field] = to_linear(number) if to_linear else number
        except ValueError:
            kind = "an integer" if parse is int else "a number"
            raise ConfigError(
                f"line {lineno}: {key} must be {kind}, got {value!r}"
            ) from None
        except OverflowError:
            raise ConfigError(
                f"line {lineno}: {key} = {value} is out of range"
            ) from None
        if field in set_by:
            first = set_by[field]
            raise ConfigError(
                f"line {lineno}: duplicate key {key}" if first == key
                else f"line {lineno}: {first} and {key} both set {field}"
            )
        set_by[field] = key
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))
    return SystemConfig().with_(**overrides)


def load_config(path: str) -> SystemConfig:
    """Parse the config file at ``path``; a file that cannot be opened or
    is not UTF-8 raises :class:`ConfigError` naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    return parse_config_text(text)


def default_config_text() -> str:
    """Render the defaults as a config document, one line per field in
    declaration order, gains and powers in dB."""
    cfg = SystemConfig()
    lines = ["# Default system parameters (gains/powers in dB form)"]
    for f in fields(cfg):
        key, _, value = _DB_FORMS.get(f.name, (f.name, None, getattr(cfg, f.name)))
        lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"
