"""Functional instruction subset used by test programs.

These instructions carry real semantics and are executed by
:class:`repro.isa.executor.FunctionalExecutor`.  The subset is chosen to be
exactly what the Reverse Tracer needs to replay a dynamic instruction
stream: integer/FP arithmetic, compares, memory operations, and the full
family of conditional branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Optional, Union

from repro.isa.opcodes import OpClass


class Mnemonic(Enum):
    """Assembler-level operation of a functional instruction."""

    # Integer arithmetic / logic.
    ADD = auto()
    SUB = auto()
    SUBCC = auto()  # compare: sets icc, result discarded when rd is %g0
    AND = auto()
    OR = auto()
    XOR = auto()
    SLL = auto()
    SRL = auto()
    SRA = auto()  # arithmetic shift right
    ANDN = auto()  # rd <- rs1 & ~rs2
    ORN = auto()  # rd <- rs1 | ~rs2
    XNOR = auto()  # rd <- ~(rs1 ^ rs2)
    MULX = auto()
    SDIVX = auto()
    MOV = auto()  # rd <- immediate (models sethi/or synthesis)
    SETHI = auto()  # rd <- imm << 10 (upper 22 bits)

    # Floating point.
    FADD = auto()
    FMUL = auto()
    FMADD = auto()  # rd <- rs1 * rs2 + rd (fused multiply-add)
    FDIV = auto()
    FCMP = auto()  # sets fcc

    # Memory.
    LDX = auto()  # rd <- mem[rs1 + imm]
    STX = auto()  # mem[rs1 + imm] <- rd (rd read as source)
    LDF = auto()  # frd <- mem[rs1 + imm]
    STF = auto()  # mem[rs1 + imm] <- frd

    # Control transfer.
    BA = auto()
    BE = auto()
    BNE = auto()
    BG = auto()
    BL = auto()
    BGE = auto()
    BLE = auto()
    FBL = auto()  # branch if fcc "less"
    FBE = auto()  # branch if fcc "equal"
    CALL = auto()  # %r15 <- pc of call; jump to target
    RET = auto()  # jump to %r15 + 8 (flattened return)

    # Other.
    NOP = auto()
    SAVE = auto()  # SPECIAL: register-window push (no flat-model effect)
    RESTORE = auto()  # SPECIAL: register-window pop
    MEMBAR = auto()  # SPECIAL: memory barrier
    HALT = auto()  # executor sentinel: stop the program


#: Mapping from functional mnemonic to timing class.
MNEMONIC_OPCLASS = {
    Mnemonic.ADD: OpClass.INT_ALU,
    Mnemonic.SUB: OpClass.INT_ALU,
    Mnemonic.SUBCC: OpClass.INT_ALU,
    Mnemonic.AND: OpClass.INT_ALU,
    Mnemonic.OR: OpClass.INT_ALU,
    Mnemonic.XOR: OpClass.INT_ALU,
    Mnemonic.SLL: OpClass.INT_ALU,
    Mnemonic.SRL: OpClass.INT_ALU,
    Mnemonic.SRA: OpClass.INT_ALU,
    Mnemonic.ANDN: OpClass.INT_ALU,
    Mnemonic.ORN: OpClass.INT_ALU,
    Mnemonic.XNOR: OpClass.INT_ALU,
    Mnemonic.SETHI: OpClass.INT_ALU,
    Mnemonic.MULX: OpClass.INT_MUL,
    Mnemonic.SDIVX: OpClass.INT_DIV,
    Mnemonic.MOV: OpClass.INT_ALU,
    Mnemonic.FADD: OpClass.FP_ADD,
    Mnemonic.FMUL: OpClass.FP_MUL,
    Mnemonic.FMADD: OpClass.FP_FMA,
    Mnemonic.FDIV: OpClass.FP_DIV,
    Mnemonic.FCMP: OpClass.FP_ADD,
    Mnemonic.LDX: OpClass.LOAD,
    Mnemonic.LDF: OpClass.LOAD,
    Mnemonic.STX: OpClass.STORE,
    Mnemonic.STF: OpClass.STORE,
    Mnemonic.BA: OpClass.BRANCH_UNCOND,
    Mnemonic.BE: OpClass.BRANCH_COND,
    Mnemonic.BNE: OpClass.BRANCH_COND,
    Mnemonic.BG: OpClass.BRANCH_COND,
    Mnemonic.BL: OpClass.BRANCH_COND,
    Mnemonic.BGE: OpClass.BRANCH_COND,
    Mnemonic.BLE: OpClass.BRANCH_COND,
    Mnemonic.FBL: OpClass.BRANCH_COND,
    Mnemonic.FBE: OpClass.BRANCH_COND,
    Mnemonic.CALL: OpClass.CALL,
    Mnemonic.RET: OpClass.RETURN,
    Mnemonic.NOP: OpClass.NOP,
    Mnemonic.SAVE: OpClass.SPECIAL,
    Mnemonic.RESTORE: OpClass.SPECIAL,
    Mnemonic.MEMBAR: OpClass.SPECIAL,
    Mnemonic.HALT: OpClass.SPECIAL,
}

_CONDITIONAL_BRANCHES = frozenset(
    {
        Mnemonic.BE,
        Mnemonic.BNE,
        Mnemonic.BG,
        Mnemonic.BL,
        Mnemonic.BGE,
        Mnemonic.BLE,
        Mnemonic.FBL,
        Mnemonic.FBE,
    }
)


@dataclass
class Instruction:
    """One functional instruction.

    ``rd``/``rs1``/``rs2`` are register *indices within their bank* (the
    mnemonic implies integer vs FP).  ``imm`` serves both as the arithmetic
    immediate and the memory displacement.  ``target`` is a label name that
    :meth:`repro.isa.program.Program.finalize` resolves to an instruction
    index.
    """

    mnemonic: Mnemonic
    rd: int = 0
    rs1: int = 0
    rs2: Optional[int] = None
    imm: Union[int, float, None] = None
    target: Optional[str] = None
    label: Optional[str] = None
    #: Resolved instruction index for control transfers (set by finalize()).
    target_index: Optional[int] = field(default=None, repr=False)
    #: True when this instruction executes in privileged (kernel) mode.
    privileged: bool = False

    @property
    def op_class(self) -> OpClass:
        """Timing class of this instruction."""
        return MNEMONIC_OPCLASS[self.mnemonic]

    @property
    def is_conditional_branch(self) -> bool:
        """True for branches whose direction depends on condition codes."""
        return self.mnemonic in _CONDITIONAL_BRANCHES

    def __str__(self) -> str:
        parts = [self.mnemonic.name.lower()]
        if self.target is not None:
            parts.append(self.target)
        else:
            operands = [f"r{self.rd}"]
            if self.rs1 is not None:
                operands.append(f"r{self.rs1}")
            if self.rs2 is not None:
                operands.append(f"r{self.rs2}")
            if self.imm is not None:
                operands.append(str(self.imm))
            parts.append(", ".join(operands))
        prefix = f"{self.label}: " if self.label else ""
        return prefix + " ".join(parts)
