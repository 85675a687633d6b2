from .serialize import emit_dot, emit_graph6, parse_graph6, validate_witness
from .harness import VerificationReport, verify_harness

__all__ = [
    "emit_dot",
    "emit_graph6",
    "parse_graph6",
    "validate_witness",
    "VerificationReport",
    "verify_harness",
]
