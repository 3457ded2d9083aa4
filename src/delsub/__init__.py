"""Binary codes that survive one deletion plus one substitution.

A class of n-bit words is pinned by three residues: the weight mod 4,
the VT checksum mod 2n and its second-order analogue mod 2n^2.  Any
received (n-1)-bit word then lies in the corruption ball of at most two
class members, and the largest class at each length keeps the redundancy
within 3 log2(n) + 4.  The package counts all classes with a dynamic
program over positions, lists a class's members by a meet-in-the-middle
join of the residue states of the two halves' bit patterns, list-decodes
received words, and verifies the combinatorial guarantees exhaustively at
small lengths.
"""

from .channel import (
    CANONICAL_CLASS_BY_DELTA,
    WEIGHT_DELTA_TABLE,
    ErrorEvent,
    Substitution,
    apply_del_sub,
    error_ball,
    iter_events,
    validate_event,
)
from .code import (
    ENUMERATION_BYTE_CAP,
    SCAN_CEILING,
    CodeParams,
    CodeStats,
    choose_params,
    codeword_values,
    enumerate_code,
    is_codeword,
    matches_value,
    params_from_bucket,
    params_of,
)
from .decoder import (
    DecodeResult,
    ListBoundError,
    list_decode,
    list_decode_brute,
)
from .scenarios import SCENARIOS, Scenario, ScenarioCheck, replay
from .syndromes import (
    SuffixDiff,
    sign_segments_ok,
    suffix_diff,
    wt_f1_f2,
)
from .verifier import (
    VERIFY_CEILING,
    RedundancyRow,
    SignSplitResult,
    classify_case,
    full_report,
    predicted_suffix_profile,
    redundancy_table,
    smoke_report,
    verify_sign_split,
    verify_weight_deltas,
)
from .words import Word, delete_bit, flip_bit, get_bit, insert_bit

__version__ = "0.1.0"
