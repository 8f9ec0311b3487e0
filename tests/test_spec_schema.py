"""The relay-method parameter schema as each of its readers shows it.

One case per kind pins the label, the rejection of every parameter the
kind does not take, the container bytes with a round trip, and the
memory-CSV row, each as text or bytes.
"""

import dataclasses
import io

import pytest

from qfrelay.bitcodec import encode_relay_state, pack_container, unpack_container
from qfrelay.quantizers import AF, HAPQ, UAPQ, UPQ, QuantizerSpec, RelayState, relay_state
from qfrelay.sweep import memory_report, write_memory_csv

PARAMETERS = ("total_bits", "phase_bits", "group_size", "level_exponent")

# spec, label, stored amplitudes, container hex (phase indices 1, 2, 3, 4),
# memory-CSV row at N_R = 4
CASES = {
    "UPQ": (
        QuantizerSpec(UPQ, total_bits=8), "U-PQ(q=8)", {},
        "010408002001020304", "4,U-PQ,8,,,,32",
    ),
    "UAPQ": (
        QuantizerSpec(UAPQ, total_bits=8, phase_bits=3), "U-APQ(q=8,qbar=3)",
        {"amplitude_bins": (0, 1, 30, 31)},
        "02040803002020417e9f", "4,U-APQ,8,3,,,32",
    ),
    "HAPQ": (
        QuantizerSpec(HAPQ, phase_bits=4, group_size=2, level_exponent=3),
        "H-APQ(qbar=4,m=2,n=3)", {"amplitude_assignment": (2, 1, 1, 2)},
        "03040402030013123460", "4,H-APQ,,4,2,3,19",
    ),
    "AF": (QuantizerSpec(AF), "AF", None, None, None),
}


@pytest.mark.parametrize(
    "spec, label, amplitudes, container, memory_row", CASES.values(), ids=list(CASES)
)
def test_parameter_schema(spec, label, amplitudes, container, memory_row):
    assert spec.label() == label
    not_taken = [attr for attr in PARAMETERS if getattr(spec, attr) is None]
    for attr in not_taken:
        with pytest.raises(ValueError, match=f"^{spec.kind} does not take {attr}$"):
            dataclasses.replace(spec, **{attr: 1})
    if spec.kind == AF:
        assert not_taken == list(PARAMETERS)
        with pytest.raises(ValueError, match="no relay state"):
            relay_state([1 + 0j, 1j], spec)
        with pytest.raises(ValueError, match="no finite bit count"):
            memory_report((4,), (spec,))
        return
    state = RelayState(spec=spec, phase_indices=(1, 2, 3, 4), **amplitudes)
    encoded = encode_relay_state(state)
    data = pack_container(encoded)
    assert data.hex() == container
    assert unpack_container(data) == encoded
    buffer = io.StringIO()
    write_memory_csv(memory_report((4,), (spec,)), buffer)
    assert buffer.getvalue() == f"n_r,method,q,qbar,m,family_n,n_b\n{memory_row}\n"
