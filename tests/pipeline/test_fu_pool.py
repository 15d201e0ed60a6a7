"""Tests for the function-unit pool."""

import pytest

from repro.common import StatGroup
from repro.isa import Instruction, Opcode
from repro.isa.instruction import DynInst
from repro.isa.opcodes import FUClass
from repro.pipeline import FUPool


def make_pool(**counts):
    defaults = {"int_alu": 2, "int_mul": 1, "fp_add": 2, "fp_mul": 1,
                "mem_port": 2}
    defaults.update(counts)
    return FUPool(defaults, StatGroup())


def inst_of(opcode, dest=1, srcs=(2, 3)):
    return DynInst(seq=0, pc=0,
                   static=Instruction(opcode=opcode, dest=dest, srcs=srcs))


class TestPipelinedUnits:
    def test_width_limited_per_cycle(self):
        pool = make_pool(int_alu=2)
        add = Opcode.ADD
        assert pool.try_issue(inst_of(add), now=0)
        assert pool.try_issue(inst_of(add), now=0)
        assert not pool.try_issue(inst_of(add), now=0)

    def test_pipelined_unit_frees_next_cycle(self):
        pool = make_pool(int_alu=1)
        assert pool.try_issue(inst_of(Opcode.ADD), now=0)
        assert pool.try_issue(inst_of(Opcode.ADD), now=1)

    def test_pipelined_multiply_accepts_every_cycle(self):
        pool = make_pool(int_mul=1)
        for cycle in range(4):
            assert pool.try_issue(inst_of(Opcode.MUL), now=cycle)


class TestNonPipelinedUnits:
    def test_divide_occupies_unit_for_latency(self):
        pool = make_pool(int_mul=1)
        assert pool.try_issue(inst_of(Opcode.DIV), now=0)
        assert not pool.try_issue(inst_of(Opcode.DIV), now=10)
        assert pool.try_issue(inst_of(Opcode.DIV), now=20)

    def test_sqrt_blocks_fp_mul_unit(self):
        pool = make_pool(fp_mul=1)
        assert pool.try_issue(inst_of(Opcode.FSQRT, srcs=(2,)), now=0)
        assert not pool.try_issue(inst_of(Opcode.FMUL), now=5)
        assert pool.try_issue(inst_of(Opcode.FMUL), now=24)

    def test_multiple_units_overlap_divides(self):
        pool = make_pool(fp_mul=2)
        assert pool.try_issue(inst_of(Opcode.FDIV), now=0)
        assert pool.try_issue(inst_of(Opcode.FDIV), now=0)
        assert not pool.try_issue(inst_of(Opcode.FDIV), now=0)


class TestMemoryOps:
    def test_mem_op_issue_uses_int_alu(self):
        # EA calculation is an ordinary integer add (paper section 5).
        pool = make_pool(int_alu=1, mem_port=0)
        assert pool.try_issue(inst_of(Opcode.LD, srcs=(2,)), now=0)
        assert not pool.try_issue(inst_of(Opcode.ADD), now=0)

    def test_cache_ports_separate_resource(self):
        pool = make_pool(mem_port=2)
        assert pool.try_cache_port(now=0)
        assert pool.try_cache_port(now=0)
        assert not pool.try_cache_port(now=0)
        assert pool.try_cache_port(now=1)

    def test_issue_class_mapping(self):
        assert FUPool.issue_class(inst_of(Opcode.LD, srcs=(2,))) is FUClass.INT_ALU
        assert FUPool.issue_class(inst_of(Opcode.FST, dest=None,
                                          srcs=(2, 33))) is FUClass.INT_ALU
        assert FUPool.issue_class(inst_of(Opcode.FADD)) is FUClass.FP_ADD
        assert FUPool.issue_class(inst_of(Opcode.FMUL)) is FUClass.FP_MUL


class TestControlOps:
    def test_halt_and_nop_need_no_unit(self):
        pool = make_pool(int_alu=0, int_mul=0, fp_add=0, fp_mul=0, mem_port=0)
        assert pool.try_issue(inst_of(Opcode.HALT, dest=None, srcs=()), now=0)
        assert pool.try_issue(inst_of(Opcode.NOP, dest=None, srcs=()), now=0)

    def test_branch_uses_int_alu(self):
        pool = make_pool(int_alu=1)
        assert pool.try_issue(inst_of(Opcode.BEQ, dest=None), now=0)
        assert not pool.try_issue(inst_of(Opcode.ADD), now=0)

    def test_structural_stall_counted(self):
        stats = StatGroup()
        pool = FUPool({"int_alu": 1, "int_mul": 0, "fp_add": 0, "fp_mul": 0,
                       "mem_port": 0}, stats)
        pool.try_issue(inst_of(Opcode.ADD), now=0)
        pool.try_issue(inst_of(Opcode.ADD), now=0)
        assert stats.get("fu.structural_stalls") == 1

    def test_next_event_cycle_tracks_earliest_busy_unit(self):
        pool = make_pool(int_alu=1, int_mul=1)
        assert pool.next_event_cycle(0) == 1 << 60      # all units free
        assert pool.try_issue(inst_of(Opcode.ADD), now=0)
        assert pool.try_issue(inst_of(Opcode.DIV), now=0)
        div_latency = inst_of(Opcode.DIV).static.info.latency
        assert pool.next_event_cycle(0) == 1
        assert pool.next_event_cycle(1) == div_latency
        assert pool.next_event_cycle(div_latency) == 1 << 60
