"""The ICI runtime library.

"Since the micro-architecture is completely compiler-driven, BAM
instructions that require sequences (e.g. dereference, unification) are
implemented via primitive operations" (paper section 4.5).  This module
provides those sequences: inline emission helpers for dereferencing,
trailing and binding, and the two global routines every compiled program
links against — the backtracking handler ``$fail`` and the general
unifier ``$unify``.
"""

from repro.terms import tags
from repro.intcode import layout


# -- inline helpers ----------------------------------------------------------


def emit_deref(b, reg):
    """Dereference *reg* in place (the classical pointer-chasing loop)."""
    loop = b.fresh_label("deref")
    done = b.fresh_label("deref_done")
    t = b.fresh_reg()
    b.label(loop)
    b.bntag(reg, tags.TREF, done)
    b.ld(t, reg, 0)
    b.branch("beq", t, reg, done)   # self-reference: unbound
    b.mov(reg, t)
    b.jmp(loop)
    b.label(done)


def emit_trail(b, reg):
    """Conditionally push the cell address in *reg* onto the trail.

    Every bindable cell lives on the heap (variables are always
    heap-allocated; environment slots never hold unbound self-references),
    so the classical WAM condition reduces to the single HB comparison:
    trail exactly the cells older than the newest choice point.
    """
    skip = b.fresh_label("trail_skip")
    b.branch("bgev", reg, "HB", skip)
    b.st(reg, "TR", 0)
    b.lea("TR", "TR", 1, tags.TRAW)
    b.label(skip)


def emit_bind(b, ptr, value):
    """Bind the unbound cell referenced by *ptr* to the word in *value*."""
    b.st(value, ptr, 0)
    emit_trail(b, ptr)


def emit_new_unbound(b, rd):
    """Push a fresh unbound cell on the heap; *rd* receives a TREF to it."""
    b.lea(rd, "H", 0, tags.TREF)
    b.st(rd, "H", 0)
    b.lea("H", "H", 1, tags.TRAW)


# -- global routines ---------------------------------------------------------


def emit_fail_routine(b):
    """Emit ``$fail``: detrail, restore machine state from B, retry.

    Any code path may ``jmp $fail``; the routine unwinds the newest choice
    point and transfers control to its saved retry address.
    """
    b.label("$fail")
    saved_tr = b.fresh_reg()
    b.ld(saved_tr, "B", layout.CP_SAVED_TR)
    loop = b.fresh_label("detrail")
    check = b.fresh_label("detrail_chk")
    b.jmp(check)
    b.label(loop)
    b.lea("TR", "TR", -1, tags.TRAW)
    addr = b.fresh_reg()
    unbound = b.fresh_reg()
    b.ld(addr, "TR", 0)
    b.mktag(unbound, addr, tags.TREF)
    b.st(unbound, addr, 0)           # reset the cell to unbound
    b.label(check)
    b.branch("bne", "TR", saved_tr, loop)
    # The general unifier may fail with subproblems still queued on the
    # push-down list; no failure path ever needs them, so reset it here.
    b.mov("PD", "K_PDLB")
    b.ld("E", "B", layout.CP_SAVED_E)
    b.ld("CP", "B", layout.CP_SAVED_CP)
    b.ld("H", "B", layout.CP_SAVED_H)
    b.mov("HB", "H")
    b.ld("ES", "B", layout.CP_SAVED_ES)
    retry = b.fresh_reg()
    b.ld(retry, "B", layout.CP_RETRY)
    b.jmpr(retry)


def emit_unify_routine(b):
    """Emit ``$unify``: general unification of the words in u0 and u1.

    Iterative with an explicit push-down list (PD).  On success returns
    through the link register RL; on mismatch jumps to ``$fail``.  The
    routine is non-reentrant, which is safe because nothing it calls can
    re-enter it.
    """
    one = b.fresh_reg()
    b.label("$unify")
    b.ldi(one, tags.pack(1, tags.TINT))

    loop = b.fresh_label("u_loop")
    matched = b.fresh_label("u_matched")
    bind0 = b.fresh_label("u_bind0")
    bind1 = b.fresh_label("u_bind1")
    bothvars = b.fresh_label("u_bothvars")
    b10 = b.fresh_label("u_b10")
    lst = b.fresh_label("u_lst")
    struct = b.fresh_label("u_str")
    push = b.fresh_label("u_str_push")
    args_done = b.fresh_label("u_str_args")
    done = b.fresh_label("u_done")

    b.label(loop)
    emit_deref(b, "u0")
    emit_deref(b, "u1")
    b.branch("beq", "u0", "u1", matched)
    b.btag("u0", tags.TREF, bind0)
    b.btag("u1", tags.TREF, bind1)
    b.btag("u0", tags.TLST, lst)
    b.btag("u0", tags.TSTR, struct)
    # Distinct atomic words (or mismatched tags): failure.
    b.jmp("$fail")

    # --- variable binding, oldest-cell-wins direction -------------------
    b.label(bind0)
    b.btag("u1", tags.TREF, bothvars)
    emit_bind(b, "u0", "u1")
    b.jmp(matched)
    b.label(bind1)
    emit_bind(b, "u1", "u0")
    b.jmp(matched)
    b.label(bothvars)
    b.branch("bltv", "u0", "u1", b10)
    emit_bind(b, "u0", "u1")
    b.jmp(matched)
    b.label(b10)
    emit_bind(b, "u1", "u0")
    b.jmp(matched)

    # --- lists: push the cdr pair, loop on the car pair ------------------
    b.label(lst)
    b.bntag("u1", tags.TLST, "$fail")
    cdr0 = b.fresh_reg()
    cdr1 = b.fresh_reg()
    b.ld(cdr0, "u0", 1)
    b.ld(cdr1, "u1", 1)
    b.st(cdr0, "PD", 0)
    b.st(cdr1, "PD", 1)
    b.lea("PD", "PD", 2, tags.TRAW)
    car0 = b.fresh_reg()
    b.ld(car0, "u0", 0)
    b.ld("u1", "u1", 0)
    b.mov("u0", car0)
    b.jmp(loop)

    # --- structures: functor check, push arg-cell reference pairs --------
    b.label(struct)
    b.bntag("u1", tags.TSTR, "$fail")
    f0 = b.fresh_reg()
    f1 = b.fresh_reg()
    b.ld(f0, "u0", 0)
    b.ld(f1, "u1", 0)
    b.branch("bne", f0, f1, "$fail")
    ftab = b.fresh_reg()
    arity = b.fresh_reg()
    b.lea(ftab, f0, layout.FTAB_BASE, tags.TRAW)
    b.ld(arity, ftab, 0)
    i = b.fresh_reg()
    b.mov(i, arity)
    b.label(push)
    b.branch("blev", i, one, args_done)
    p0 = b.fresh_reg()
    p1 = b.fresh_reg()
    b.alu("add", p0, "u0", rb=i)
    b.mktag(p0, p0, tags.TREF)
    b.alu("add", p1, "u1", rb=i)
    b.mktag(p1, p1, tags.TREF)
    b.st(p0, "PD", 0)
    b.st(p1, "PD", 1)
    b.lea("PD", "PD", 2, tags.TRAW)
    b.lea(i, i, -1, tags.TINT)
    b.jmp(push)
    b.label(args_done)
    b.lea("u0", "u0", 1, tags.TREF)
    b.lea("u1", "u1", 1, tags.TREF)
    b.jmp(loop)

    # --- subproblem done: pop the push-down list or return ---------------
    b.label(matched)
    b.branch("beq", "PD", "K_PDLB", done)
    b.lea("PD", "PD", -2, tags.TRAW)
    b.ld("u0", "PD", 0)
    b.ld("u1", "PD", 1)
    b.jmp(loop)
    b.label(done)
    b.jmpr("RL")


def emit_equal_routine(b):
    """Emit ``$equal``: structural comparison of u0 and u1 (no binding).

    Sets the register EQR to ``TINT(1)`` on equality, ``TINT(0)``
    otherwise, and returns through RL in both cases.
    """
    b.label("$equal")
    loop = b.fresh_label("e_loop")
    matched = b.fresh_label("e_matched")
    lst = b.fresh_label("e_lst")
    struct = b.fresh_label("e_str")
    push = b.fresh_label("e_str_push")
    args_done = b.fresh_label("e_str_args")
    done = b.fresh_label("e_done")
    differ = b.fresh_label("e_differ")
    one = b.fresh_reg()
    b.ldi(one, tags.pack(1, tags.TINT))

    b.label(loop)
    emit_deref(b, "u0")
    emit_deref(b, "u1")
    b.branch("beq", "u0", "u1", matched)
    b.btag("u0", tags.TREF, differ)
    b.btag("u1", tags.TREF, differ)
    b.btag("u0", tags.TLST, lst)
    b.btag("u0", tags.TSTR, struct)
    b.jmp(differ)

    b.label(lst)
    b.bntag("u1", tags.TLST, differ)
    cdr0 = b.fresh_reg()
    cdr1 = b.fresh_reg()
    b.ld(cdr0, "u0", 1)
    b.ld(cdr1, "u1", 1)
    b.st(cdr0, "PD", 0)
    b.st(cdr1, "PD", 1)
    b.lea("PD", "PD", 2, tags.TRAW)
    car0 = b.fresh_reg()
    b.ld(car0, "u0", 0)
    b.ld("u1", "u1", 0)
    b.mov("u0", car0)
    b.jmp(loop)

    b.label(struct)
    b.bntag("u1", tags.TSTR, differ)
    f0 = b.fresh_reg()
    f1 = b.fresh_reg()
    b.ld(f0, "u0", 0)
    b.ld(f1, "u1", 0)
    b.branch("bne", f0, f1, differ)
    ftab = b.fresh_reg()
    arity = b.fresh_reg()
    b.lea(ftab, f0, layout.FTAB_BASE, tags.TRAW)
    b.ld(arity, ftab, 0)
    i = b.fresh_reg()
    b.mov(i, arity)
    b.label(push)
    b.branch("blev", i, one, args_done)
    p0 = b.fresh_reg()
    p1 = b.fresh_reg()
    b.alu("add", p0, "u0", rb=i)
    b.mktag(p0, p0, tags.TREF)
    b.alu("add", p1, "u1", rb=i)
    b.mktag(p1, p1, tags.TREF)
    b.st(p0, "PD", 0)
    b.st(p1, "PD", 1)
    b.lea("PD", "PD", 2, tags.TRAW)
    b.lea(i, i, -1, tags.TINT)
    b.jmp(push)
    b.label(args_done)
    b.lea("u0", "u0", 1, tags.TREF)
    b.lea("u1", "u1", 1, tags.TREF)
    b.jmp(loop)

    b.label(matched)
    b.branch("beq", "PD", "K_PDLB", done)
    b.lea("PD", "PD", -2, tags.TRAW)
    b.ld("u0", "PD", 0)
    b.ld("u1", "PD", 1)
    b.jmp(loop)
    b.label(done)
    b.ldi("EQR", tags.pack(1, tags.TINT))
    b.jmpr("RL")
    b.label(differ)
    b.mov("PD", "K_PDLB")    # abandon any queued subproblems
    b.ldi("EQR", tags.pack(0, tags.TINT))
    b.jmpr("RL")


def emit_runtime(b):
    """Emit the full runtime library into *b*."""
    emit_fail_routine(b)
    emit_unify_routine(b)
    emit_equal_routine(b)
