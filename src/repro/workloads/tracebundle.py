"""Trace bundles: kernels as on-disk artifacts instead of python code.

A *bundle* is a directory of five text files that fully describes one
kernel launch — program, memory image, launch parameters, and expected
outputs — in the format specified normatively by ``docs/kernel-bundles.md``:

``bundle.toml``
    Metadata: format version, kernel name, launch geometry, parameter
    schema, verification tolerance (TOML, read with :mod:`tomllib`, in
    flat sections of scalar values).
``program.csv``
    The instruction matrix, one row per static instruction, mapping
    one-to-one onto :class:`repro.isa.instruction.Instruction`.
``memory.csv``
    The initial global-memory image as ``offset,value`` words relative
    to the bundle's relocatable image base.
``inputs.csv``
    Launch parameter values; ``address``-typed parameters are image
    offsets and are rebased when the image is placed.
``expected.csv``
    Words the finished kernel must have produced, verified by
    :meth:`TraceWorkload.verify`.

Bundles are validated eagerly at load time — every error names the
offending file (and line/column where one exists) via
:class:`~repro.utils.errors.BundleError`.  A loaded bundle becomes a
:class:`TraceWorkload` subclass registered through the ordinary workload
registry, so bundles flow unchanged through sessions, experiment grids,
parallel executors, sensitivity studies, scenarios, and the persistent
store (each bundle's content fingerprint is folded into
``Experiment.spec_hash``).

The module also contains the exporter (:func:`export_workload`) that
serializes any registered single-launch builder workload as a bundle,
and the single-stream text envelope used to pipe bundles between
``repro bundle export`` and ``repro bundle run``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import re
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    NO_DEST_OPCODES,
    PREDICATE_DEST_OPCODES,
    CmpOp,
    MemSpace,
    Opcode,
)
from repro.isa.operands import Imm, Param, Pred, Reg, Special
from repro.isa.program import Program
from repro.memory.globalmem import WORD_SIZE
from repro.utils.errors import AssemblyError, BundleError
from repro.workloads.base import LaunchSpec, Workload

#: The bundle format version this loader understands.
FORMAT_VERSION = 1

#: Byte address where a bundle's memory image is placed on a fresh GPU
#: (the global allocator's first address).  All ``memory.csv`` /
#: ``expected.csv`` offsets and ``address``-typed inputs are relative to
#: wherever the image actually lands; on a fresh device that is exactly
#: this address, which is what makes exported bundles byte-identical to
#: their builder originals.
IMAGE_BASE = 256

#: The five files every bundle directory must contain.
BUNDLE_FILES = (
    "bundle.toml",
    "program.csv",
    "memory.csv",
    "inputs.csv",
    "expected.csv",
)

#: Column order of ``program.csv`` (one row per static instruction).
PROGRAM_COLUMNS = (
    "pc", "opcode", "modifier", "dst", "srcs", "guard",
    "offset", "target", "reconv", "comment",
)

#: Column order of ``memory.csv`` and ``expected.csv``.
MEMORY_COLUMNS = ("offset", "value")

#: Column order of ``inputs.csv``.
INPUTS_COLUMNS = ("name", "value")

#: Every ``bundle.toml`` key the loader parses, by section ("" is the
#: top level).  ``docs/kernel-bundles.md`` must document exactly these —
#: the offline docs check diffs its tables against this constant.
BUNDLE_TOML_KEYS: Dict[str, Tuple[str, ...]] = {
    "": ("format",),
    "kernel": ("name", "description"),
    "launch": ("grid_dim", "block_dim"),
    "program": ("name", "registers", "predicates", "shared_bytes",
                "local_bytes"),
    "image": ("bytes",),
    "params": (),  # free-form: one key per kernel parameter
    "verify": ("tolerance",),
}

#: Allowed parameter type strings in ``[params]``.
PARAM_TYPES = ("int", "float", "address")

#: First line of the single-stream bundle envelope.
STREAM_HEADER = "# repro-bundle-stream v1"

#: Section marker prefix of the stream envelope.
STREAM_MARKER = ">>> "

#: Environment variable holding extra bundle directories (``os.pathsep``
#: separated) discovered at import time.
BUNDLE_PATH_ENV = "REPRO_BUNDLE_PATH"

#: Load failures collected during import-time discovery of user bundle
#: directories, as ``(path, message)`` pairs.  Discovery must not make
#: ``import repro.workloads`` raise because one user bundle is broken;
#: ``repro bundle list`` surfaces these instead.
BUNDLE_LOAD_ERRORS: List[Tuple[str, str]] = []

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*\Z")
_REG_RE = re.compile(r"r(\d+)\Z")
_PRED_RE = re.compile(r"p(\d+)\Z")
_INT_RE = re.compile(r"[+-]?\d+\Z")


# ----------------------------------------------------------------------
# Number formatting (canonical, round-trips exactly)
# ----------------------------------------------------------------------
def format_number(value: float) -> str:
    """Canonical text for a numeric value.

    Integral values render without a fractional part; everything else
    uses ``repr``, which round-trips float64 exactly.  The formatter is
    deterministic, which is what makes ``export -> load -> export``
    byte-identical.
    """
    number = float(value)
    if number.is_integer() and abs(number) < 2**53:
        return str(int(number))
    return repr(number)


def _parse_number(token: str, where: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise BundleError(f"{where}: not a number: {token!r}") from None


def _parse_int(token: str, where: str) -> int:
    if not _INT_RE.match(token.strip()):
        raise BundleError(f"{where}: not an integer: {token!r}")
    return int(token)


# ----------------------------------------------------------------------
# bundle.toml reader / writer
# ----------------------------------------------------------------------
def parse_toml(text: str, filename: str) -> Dict[str, Dict[str, object]]:
    """Parse ``bundle.toml`` into ``{section: {key: value}}``.

    Top-level keys land under the ``""`` section and every root table
    becomes one section.  Syntax errors keep ``tomllib``'s line and
    column; a value that is not a string, integer, float or boolean
    (an array, a nested or inline table, a date or time) raises
    :class:`BundleError` naming ``filename`` and the key.
    """
    try:
        document = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise BundleError(f"{filename}: {exc}") from None
    data: Dict[str, Dict[str, object]] = {"": {}}
    for key, value in document.items():
        if isinstance(value, dict):
            data[key] = {name: _toml_scalar(item, f"{key}.{name}", filename)
                         for name, item in value.items()}
        else:
            data[""][key] = _toml_scalar(value, key, filename)
    return data


def _toml_scalar(value: object, key: str, filename: str) -> object:
    if isinstance(value, (str, int, float)):  # bool is an int
        return value
    raise BundleError(
        f"{filename}: key {key!r} must be a string, integer, float or "
        f"boolean, got {type(value).__name__}"
    )


def format_toml_string(value: str) -> str:
    """Quote ``value`` as a TOML basic string (escaping ``\\`` ``\"`` etc.)."""
    escaped = (value.replace("\\", "\\\\").replace('"', '\\"')
               .replace("\n", "\\n").replace("\t", "\\t"))
    return f'"{escaped}"'


# ----------------------------------------------------------------------
# CSV scaffolding
# ----------------------------------------------------------------------
def _iter_csv_rows(text: str, filename: str,
                   columns: Tuple[str, ...]):
    """Yield ``(lineno, row_dict)`` for each data row of a bundle CSV.

    Validates the header and per-row field counts; blank lines and
    full-line ``#`` comments are skipped.  Quoted fields may contain
    commas but not newlines (rows are parsed line by line so every
    diagnostic has an exact line number).
    """
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        where = f"{filename}:{lineno}"
        try:
            parsed = list(csv.reader([raw]))
        except csv.Error as exc:
            raise BundleError(f"{where}: {exc}") from None
        if len(parsed) != 1:
            raise BundleError(f"{where}: malformed CSV row")
        fields = parsed[0]
        if not header_seen:
            if tuple(fields) != columns:
                raise BundleError(
                    f"{where}: bad header {fields!r}; expected columns "
                    f"{','.join(columns)}"
                )
            header_seen = True
            continue
        if len(fields) != len(columns):
            raise BundleError(
                f"{where}: {len(fields)} fields, expected {len(columns)} "
                f"({','.join(columns)})"
            )
        yield lineno, dict(zip(columns, fields))
    if not header_seen:
        raise BundleError(f"{filename}: missing header row "
                          f"({','.join(columns)})")


def _write_csv(columns: Tuple[str, ...], rows: List[Tuple[str, ...]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


# ----------------------------------------------------------------------
# Operand grammar
# ----------------------------------------------------------------------
def parse_operand(token: str, where: str):
    """Parse one operand token of ``program.csv``.

    Grammar: ``rN`` register, ``pN`` predicate, ``%name`` special
    register, ``$name`` kernel parameter, anything numeric (optionally
    ``#``-prefixed) an immediate.
    """
    match = _REG_RE.match(token)
    if match:
        return Reg(int(match.group(1)))
    match = _PRED_RE.match(token)
    if match:
        return Pred(int(match.group(1)))
    if token.startswith("%"):
        try:
            return Special(token[1:])
        except ValueError as exc:
            raise BundleError(f"{where}: {exc}") from None
    if token.startswith("$"):
        name = token[1:]
        if not _IDENT_RE.match(name):
            raise BundleError(f"{where}: bad parameter name {name!r}")
        return Param(name)
    return Imm(_parse_number(token.lstrip("#"), where))


def format_operand(operand) -> str:
    """Canonical ``program.csv`` token for an operand (parser inverse)."""
    if isinstance(operand, Reg):
        return f"r{operand.index}"
    if isinstance(operand, Pred):
        return f"p{operand.index}"
    if isinstance(operand, Special):
        return f"%{operand.name}"
    if isinstance(operand, Param):
        return f"${operand.name}"
    if isinstance(operand, Imm):
        return format_number(operand.value)
    raise BundleError(f"cannot serialize operand {operand!r}")


# ----------------------------------------------------------------------
# program.csv <-> Instruction
# ----------------------------------------------------------------------
def _parse_instruction(row: Dict[str, str], where: str) -> Instruction:
    def column(name: str) -> str:
        return f"{where}, column {name!r}"

    try:
        opcode = Opcode(row["opcode"].strip())
    except ValueError:
        raise BundleError(
            f"{column('opcode')}: unknown opcode {row['opcode']!r}"
        ) from None

    modifier = row["modifier"].strip()
    cmp: Optional[CmpOp] = None
    space: Optional[MemSpace] = None
    if opcode is Opcode.SETP:
        try:
            cmp = CmpOp(modifier)
        except ValueError:
            raise BundleError(
                f"{column('modifier')}: setp needs a comparison "
                f"({'/'.join(op.value for op in CmpOp)}), got {modifier!r}"
            ) from None
    elif opcode in (Opcode.LD, Opcode.ST):
        try:
            space = MemSpace(modifier)
        except ValueError:
            raise BundleError(
                f"{column('modifier')}: {opcode.value} needs a memory space "
                f"({'/'.join(s.value for s in MemSpace)}), got {modifier!r}"
            ) from None
    elif modifier:
        raise BundleError(
            f"{column('modifier')}: {opcode.value} takes no modifier"
        )

    dst_text = row["dst"].strip()
    dst = None
    if opcode in NO_DEST_OPCODES:
        if dst_text:
            raise BundleError(
                f"{column('dst')}: {opcode.value} takes no destination"
            )
    else:
        if not dst_text:
            raise BundleError(
                f"{column('dst')}: {opcode.value} needs a destination"
            )
        dst = parse_operand(dst_text, column("dst"))
        wants_pred = opcode in PREDICATE_DEST_OPCODES
        if wants_pred and not isinstance(dst, Pred):
            raise BundleError(
                f"{column('dst')}: {opcode.value} writes a predicate "
                f"(pN), got {dst_text!r}"
            )
        if not wants_pred and not isinstance(dst, Reg):
            raise BundleError(
                f"{column('dst')}: {opcode.value} writes a register "
                f"(rN), got {dst_text!r}"
            )

    srcs = tuple(parse_operand(token, column("srcs"))
                 for token in row["srcs"].split())

    guard_text = row["guard"].strip()
    guard = None
    if guard_text:
        negated = guard_text.startswith("!")
        pred = parse_operand(guard_text.lstrip("!"), column("guard"))
        if not isinstance(pred, Pred):
            raise BundleError(
                f"{column('guard')}: guard must be pN or !pN, "
                f"got {guard_text!r}"
            )
        guard = (pred, negated)

    offset_text = row["offset"].strip()
    offset = _parse_int(offset_text, column("offset")) if offset_text else 0
    if offset and opcode not in (Opcode.LD, Opcode.ST):
        raise BundleError(
            f"{column('offset')}: only ld/st take a byte offset"
        )

    target_text = row["target"].strip()
    reconv_text = row["reconv"].strip()
    target = reconv = None
    if opcode is Opcode.BRA:
        if not target_text:
            raise BundleError(f"{column('target')}: bra needs a target PC")
        target = _parse_int(target_text, column("target"))
        if reconv_text:
            reconv = _parse_int(reconv_text, column("reconv"))
    else:
        if target_text:
            raise BundleError(f"{column('target')}: only bra takes a target")
        if reconv_text:
            raise BundleError(f"{column('reconv')}: only bra takes a reconv")

    return Instruction(
        opcode=opcode, dst=dst, srcs=srcs, guard=guard, cmp=cmp,
        space=space, offset=offset, target=target, reconv=reconv,
        comment=row["comment"],
    )


def _format_instruction(instruction: Instruction, pc: int) -> Tuple[str, ...]:
    modifier = ""
    if instruction.cmp is not None:
        modifier = instruction.cmp.value
    elif instruction.space is not None:
        modifier = instruction.space.value
    guard = ""
    if instruction.guard is not None:
        pred, negated = instruction.guard
        guard = f"{'!' if negated else ''}{format_operand(pred)}"
    comment = instruction.comment or ""
    if "\n" in comment:
        raise BundleError(
            f"instruction at pc {pc} has a multi-line comment; "
            f"program.csv comments are single-line"
        )
    return (
        str(pc),
        instruction.opcode.value,
        modifier,
        "" if instruction.dst is None else format_operand(instruction.dst),
        " ".join(format_operand(op) for op in instruction.srcs),
        guard,
        str(instruction.offset) if instruction.offset else "",
        "" if instruction.target is None else str(instruction.target),
        "" if instruction.reconv is None else str(instruction.reconv),
        comment,
    )


def format_program(program: Program) -> str:
    """Serialize a program as canonical ``program.csv`` text."""
    rows = [_format_instruction(instruction, pc)
            for pc, instruction in enumerate(program.instructions)]
    return _write_csv(PROGRAM_COLUMNS, rows)


# ----------------------------------------------------------------------
# The bundle itself
# ----------------------------------------------------------------------
@dataclass
class KernelBundle:
    """A fully validated trace bundle, ready to instantiate as a workload."""

    name: str
    description: str
    grid_dim: int
    block_dim: int
    program_name: str
    num_registers: int
    num_predicates: int
    shared_bytes: int
    local_bytes: int
    image_bytes: int
    param_types: Dict[str, str]
    inputs: Dict[str, float]
    memory_words: List[Tuple[int, float]]
    expected_words: List[Tuple[int, float]]
    tolerance: float
    instructions: List[Instruction] = field(repr=False)
    files: Dict[str, str] = field(repr=False)

    @property
    def fingerprint(self) -> str:
        """Path-independent content hash over all five bundle files."""
        digest = hashlib.sha256()
        for filename in sorted(self.files):
            digest.update(filename.encode())
            digest.update(b"\0")
            digest.update(self.files[filename].encode())
            digest.update(b"\0")
        return digest.hexdigest()

    def build_program(self) -> Program:
        """A fresh :class:`Program` (instructions copied per call so
        concurrent GPUs never share mutable instruction state)."""
        instructions = [
            Instruction(
                opcode=i.opcode, dst=i.dst, srcs=i.srcs, guard=i.guard,
                cmp=i.cmp, space=i.space, offset=i.offset, target=i.target,
                reconv=i.reconv, comment=i.comment,
            )
            for i in self.instructions
        ]
        return Program(
            name=self.program_name,
            instructions=instructions,
            num_registers=self.num_registers,
            num_predicates=self.num_predicates,
            param_names=tuple(self.param_types),
            shared_bytes=self.shared_bytes,
            local_bytes=self.local_bytes,
        )


def _section(data: Dict[str, Dict[str, object]],
             name: str) -> Dict[str, object]:
    return data.get(name, {})


def _check_keys(section: Dict[str, object], name: str, filename: str) -> None:
    allowed = BUNDLE_TOML_KEYS[name]
    for key in section:
        if key not in allowed:
            label = f"[{name}]" if name else "top level"
            raise BundleError(
                f"{filename}: unknown key {key!r} in {label}; "
                f"expected one of {', '.join(allowed) or '(none)'}"
            )


def _get_typed(section: Dict[str, object], key: str, kind, default,
               filename: str, label: str):
    kinds = kind if isinstance(kind, tuple) else (kind,)
    kind_names = "/".join(k.__name__ for k in kinds)
    if key not in section:
        if default is _REQUIRED:
            raise BundleError(f"{filename}: missing required key "
                              f"{key!r} in {label}")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise BundleError(
            f"{filename}: key {key!r} in {label} must be "
            f"{kind_names}, got {value!r}"
        )
    return value


_REQUIRED = object()


def load_bundle_files(files: Mapping[str, str],
                      origin: str = "<bundle>") -> KernelBundle:
    """Validate a complete in-memory bundle (filename -> text).

    ``origin`` prefixes error messages (the bundle directory for on-disk
    bundles, ``<stdin>`` for streamed ones).
    """
    for filename in BUNDLE_FILES:
        if filename not in files:
            raise BundleError(f"{origin}: missing bundle file {filename!r}")
    for filename in files:
        if filename not in BUNDLE_FILES:
            raise BundleError(
                f"{origin}: unexpected bundle file {filename!r}; a bundle "
                f"holds exactly {', '.join(BUNDLE_FILES)}"
            )

    def path(filename: str) -> str:
        return f"{origin}/{filename}"

    toml_name = path("bundle.toml")
    data = parse_toml(files["bundle.toml"], toml_name)
    for section_name in data:
        if section_name not in BUNDLE_TOML_KEYS:
            raise BundleError(
                f"{toml_name}: unknown section [{section_name}]"
            )
        if section_name != "params":
            _check_keys(data[section_name], section_name, toml_name)

    top = data[""]
    version = _get_typed(top, "format", int, _REQUIRED, toml_name,
                         "the top level")
    if version != FORMAT_VERSION:
        raise BundleError(
            f"{toml_name}: unknown format version {version}; this loader "
            f"understands format = {FORMAT_VERSION}"
        )

    kernel = _section(data, "kernel")
    name = _get_typed(kernel, "name", str, _REQUIRED, toml_name, "[kernel]")
    if not _IDENT_RE.match(name):
        raise BundleError(f"{toml_name}: bad kernel name {name!r}")
    description = _get_typed(kernel, "description", str, "", toml_name,
                             "[kernel]")

    launch = _section(data, "launch")
    grid_dim = _get_typed(launch, "grid_dim", int, _REQUIRED, toml_name,
                          "[launch]")
    block_dim = _get_typed(launch, "block_dim", int, _REQUIRED, toml_name,
                           "[launch]")
    if grid_dim < 1 or block_dim < 1:
        raise BundleError(
            f"{toml_name}: [launch] grid_dim and block_dim must be >= 1, "
            f"got {grid_dim} x {block_dim}"
        )

    params_section = _section(data, "params")
    param_types: Dict[str, str] = {}
    for key, value in params_section.items():
        if value not in PARAM_TYPES:
            raise BundleError(
                f"{toml_name}: [params] {key} must be one of "
                f"{'/'.join(PARAM_TYPES)}, got {value!r}"
            )
        param_types[key] = value

    # --- program.csv ---------------------------------------------------
    program_path = path("program.csv")
    instructions: List[Instruction] = []
    for lineno, row in _iter_csv_rows(files["program.csv"], program_path,
                                      PROGRAM_COLUMNS):
        where = f"{program_path}:{lineno}"
        declared_pc = _parse_int(row["pc"], f"{where}, column 'pc'")
        if declared_pc != len(instructions):
            raise BundleError(
                f"{where}, column 'pc': rows must be numbered "
                f"consecutively from 0; expected {len(instructions)}, "
                f"got {declared_pc}"
            )
        instructions.append(_parse_instruction(row, where))

    program_section = _section(data, "program")
    program_name = _get_typed(program_section, "name", str, name, toml_name,
                              "[program]")
    max_reg = max((op.index for i in instructions
                   for op in (*i.srcs, i.dst) if isinstance(op, Reg)),
                  default=-1)
    max_pred = max((op.index for i in instructions
                    for op in (*i.srcs, i.dst,
                               i.guard[0] if i.guard else None)
                    if isinstance(op, Pred)),
                   default=-1)
    num_registers = _get_typed(program_section, "registers", int,
                               max(max_reg + 1, 1), toml_name, "[program]")
    num_predicates = _get_typed(program_section, "predicates", int,
                                max(max_pred + 1, 1), toml_name, "[program]")
    shared_bytes = _get_typed(program_section, "shared_bytes", int, 0,
                              toml_name, "[program]")
    local_bytes = _get_typed(program_section, "local_bytes", int, 0,
                             toml_name, "[program]")

    used_params = {op.name for i in instructions for op in i.srcs
                   if isinstance(op, Param)}
    undeclared = sorted(used_params - set(param_types))
    if undeclared:
        raise BundleError(
            f"{program_path}: parameters {undeclared} are used by the "
            f"program but not declared in {toml_name} [params]"
        )

    # --- inputs.csv ----------------------------------------------------
    inputs_path = path("inputs.csv")
    inputs: Dict[str, float] = {}
    for lineno, row in _iter_csv_rows(files["inputs.csv"], inputs_path,
                                      INPUTS_COLUMNS):
        where = f"{inputs_path}:{lineno}"
        key = row["name"].strip()
        if key not in param_types:
            raise BundleError(
                f"{where}, column 'name': {key!r} is not declared in "
                f"{toml_name} [params]"
            )
        if key in inputs:
            raise BundleError(
                f"{where}, column 'name': duplicate value for {key!r}"
            )
        value = _parse_number(row["value"], f"{where}, column 'value'")
        kind = param_types[key]
        if kind in ("int", "address") and not float(value).is_integer():
            raise BundleError(
                f"{where}, column 'value': {key} is typed {kind} and "
                f"must be integral, got {row['value']}"
            )
        if kind == "address" and (value < 0 or int(value) % WORD_SIZE):
            raise BundleError(
                f"{where}, column 'value': address {key} must be a "
                f"non-negative multiple of {WORD_SIZE}, got {row['value']}"
            )
        inputs[key] = float(value)
    missing = sorted(set(param_types) - set(inputs))
    if missing:
        raise BundleError(
            f"{inputs_path}: missing values for declared parameters "
            f"{missing}"
        )

    # --- memory.csv / expected.csv -------------------------------------
    def read_words(filename: str) -> List[Tuple[int, float]]:
        file_path = path(filename)
        words: List[Tuple[int, float]] = []
        seen = set()
        for lineno, row in _iter_csv_rows(files[filename], file_path,
                                          MEMORY_COLUMNS):
            where = f"{file_path}:{lineno}"
            offset = _parse_int(row["offset"], f"{where}, column 'offset'")
            if offset < 0 or offset % WORD_SIZE:
                raise BundleError(
                    f"{where}, column 'offset': offsets are non-negative "
                    f"multiples of {WORD_SIZE}, got {offset}"
                )
            if offset in seen:
                raise BundleError(
                    f"{where}, column 'offset': duplicate offset {offset}"
                )
            seen.add(offset)
            value = _parse_number(row["value"], f"{where}, column 'value'")
            words.append((offset, value))
        return words

    memory_words = read_words("memory.csv")
    expected_words = read_words("expected.csv")

    required = max(
        [offset + WORD_SIZE for offset, _ in memory_words]
        + [offset + WORD_SIZE for offset, _ in expected_words]
        + [int(value) + WORD_SIZE for key, value in inputs.items()
           if param_types[key] == "address"]
        + [WORD_SIZE],
    )
    image = _section(data, "image")
    image_bytes = _get_typed(image, "bytes", int, required, toml_name,
                             "[image]")
    if image_bytes % WORD_SIZE or image_bytes <= 0:
        raise BundleError(
            f"{toml_name}: [image] bytes must be a positive multiple of "
            f"{WORD_SIZE}, got {image_bytes}"
        )
    if image_bytes < required:
        raise BundleError(
            f"{toml_name}: [image] bytes = {image_bytes} but the bundle "
            f"references offsets up to {required - WORD_SIZE} "
            f"(needs >= {required})"
        )

    verify_section = _section(data, "verify")
    tolerance = _get_typed(verify_section, "tolerance", (int, float), 0.0,
                           toml_name, "[verify]")
    if tolerance < 0:
        raise BundleError(
            f"{toml_name}: [verify] tolerance must be >= 0, got {tolerance}"
        )

    bundle = KernelBundle(
        name=name,
        description=description,
        grid_dim=grid_dim,
        block_dim=block_dim,
        program_name=program_name,
        num_registers=num_registers,
        num_predicates=num_predicates,
        shared_bytes=shared_bytes,
        local_bytes=local_bytes,
        image_bytes=image_bytes,
        param_types=param_types,
        inputs=inputs,
        memory_words=memory_words,
        expected_words=expected_words,
        tolerance=float(tolerance),
        instructions=instructions,
        files=dict(files),
    )
    try:
        bundle.build_program().validate()
    except AssemblyError as exc:
        raise BundleError(f"{program_path}: {exc}") from None
    return bundle


def load_bundle(directory) -> KernelBundle:
    """Load and validate a bundle from a directory on disk."""
    path = Path(directory)
    if not path.is_dir():
        raise BundleError(f"{path}: not a bundle directory")
    files: Dict[str, str] = {}
    for filename in BUNDLE_FILES:
        file_path = path / filename
        if not file_path.is_file():
            raise BundleError(f"{path}: missing bundle file {filename!r}")
        files[filename] = file_path.read_text()
    return load_bundle_files(files, origin=str(path))


def write_bundle_dir(files: Mapping[str, str], directory) -> Path:
    """Write a bundle's files into ``directory`` (created if needed)."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    for filename in BUNDLE_FILES:
        (path / filename).write_text(files[filename])
    return path


# ----------------------------------------------------------------------
# Single-stream envelope (for piping export | run)
# ----------------------------------------------------------------------
def write_bundle_stream(files: Mapping[str, str]) -> str:
    """Serialize a bundle as one text stream (``export`` stdout format)."""
    parts = [STREAM_HEADER + "\n"]
    for filename in BUNDLE_FILES:
        content = files[filename]
        if not content.endswith("\n"):
            content += "\n"
        for line in content.splitlines():
            if line.startswith(STREAM_MARKER.rstrip()):
                raise BundleError(
                    f"{filename}: line collides with the stream marker "
                    f"{STREAM_MARKER!r}"
                )
        parts.append(f"{STREAM_MARKER}{filename}\n")
        parts.append(content)
    return "".join(parts)


def read_bundle_stream(text: str, origin: str = "<stream>"
                       ) -> Dict[str, str]:
    """Parse the envelope produced by :func:`write_bundle_stream`."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != STREAM_HEADER:
        raise BundleError(
            f"{origin}:1: not a bundle stream (expected first line "
            f"{STREAM_HEADER!r})"
        )
    files: Dict[str, str] = {}
    current: Optional[str] = None
    content: List[str] = []

    def flush() -> None:
        if current is not None:
            files[current] = "".join(f"{line}\n" for line in content)

    for lineno, line in enumerate(lines[1:], start=2):
        if line.startswith(STREAM_MARKER):
            flush()
            current = line[len(STREAM_MARKER):].strip()
            if current not in BUNDLE_FILES:
                raise BundleError(
                    f"{origin}:{lineno}: unknown bundle file {current!r}"
                )
            if current in files:
                raise BundleError(
                    f"{origin}:{lineno}: duplicate section {current!r}"
                )
            content = []
            continue
        if current is None:
            raise BundleError(
                f"{origin}:{lineno}: content before the first "
                f"{STREAM_MARKER!r} marker"
            )
        content.append(line)
    flush()
    return files


# ----------------------------------------------------------------------
# TraceWorkload
# ----------------------------------------------------------------------
class TraceWorkload(Workload):
    """A workload whose kernel, memory image, and verification data come
    from an on-disk trace bundle instead of python code.

    Subclasses are manufactured by :func:`make_trace_workload`; each
    carries its :class:`KernelBundle` as the ``bundle`` class attribute
    and the bundle's content hash as ``content_fingerprint`` (picked up
    by ``Experiment.spec_hash`` so byte-different bundles never share
    store records).
    """

    bundle: KernelBundle

    def __init__(self) -> None:
        super().__init__()
        self._base = 0

    def build_program(self) -> Program:
        return self.bundle.build_program()

    def prepare(self, gpu) -> LaunchSpec:
        bundle = self.bundle
        self._base = gpu.allocate(bundle.image_bytes,
                                  name=f"{bundle.name}.image")
        memory = gpu.global_memory
        for offset, value in bundle.memory_words:
            memory.write_word(self._base + offset, value)
        params: Dict[str, float] = {}
        for key, value in bundle.inputs.items():
            if bundle.param_types[key] == "address":
                params[key] = self._base + value
            else:
                params[key] = value
        return LaunchSpec(
            grid_dim=bundle.grid_dim,
            block_dim=bundle.block_dim,
            params=params,
            address_params=tuple(key for key in bundle.param_types
                                 if bundle.param_types[key] == "address"),
        )

    def verify(self, gpu) -> bool:
        bundle = self.bundle
        memory = gpu.global_memory
        for offset, expected in bundle.expected_words:
            produced = memory.read_word(self._base + offset)
            if abs(produced - expected) > bundle.tolerance:
                return False
        return True


def make_trace_workload(bundle: KernelBundle) -> type:
    """Manufacture the :class:`TraceWorkload` subclass for ``bundle``."""
    return type(
        f"TraceWorkload_{bundle.name}",
        (TraceWorkload,),
        {
            "name": bundle.name,
            "bundle": bundle,
            "content_fingerprint": bundle.fingerprint,
            "__doc__": bundle.description or
                       f"Trace bundle kernel {bundle.name!r}.",
        },
    )


def register_bundle(bundle: KernelBundle, *, source: str = "bundle",
                    overwrite: bool = False) -> type:
    """Register ``bundle`` as a workload; returns the workload class."""
    from repro.workloads import WORKLOAD_REGISTRY

    workload_cls = make_trace_workload(bundle)
    WORKLOAD_REGISTRY.register(
        workload_cls,
        name=bundle.name,
        description=bundle.description or
                    f"Trace bundle kernel {bundle.name!r}.",
        source=source,
        overwrite=overwrite,
    )
    return workload_cls


# ----------------------------------------------------------------------
# Discovery
# ----------------------------------------------------------------------
def builtin_bundle_dir() -> Path:
    """Directory of the corpus packaged with the library."""
    return Path(__file__).resolve().parent / "bundles"


def iter_bundle_dirs(root) -> List[Path]:
    """Bundle directories under ``root`` (subdirs holding bundle.toml)."""
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(p for p in root.iterdir()
                  if p.is_dir() and (p / "bundle.toml").is_file())


def discover_bundles(root, *, source: str, overwrite: bool = False,
                     strict: bool = True) -> List[str]:
    """Load and register every bundle under ``root``.

    With ``strict=False`` broken bundles are recorded in
    :data:`BUNDLE_LOAD_ERRORS` instead of raising — used for import-time
    discovery of user directories so one bad artifact cannot take down
    ``import repro.workloads``.
    """
    registered: List[str] = []
    for bundle_dir in iter_bundle_dirs(root):
        try:
            bundle = load_bundle(bundle_dir)
            register_bundle(bundle, source=source, overwrite=overwrite)
        except Exception as exc:  # RegistryError, BundleError, OSError
            if strict:
                raise
            BUNDLE_LOAD_ERRORS.append((str(bundle_dir), str(exc)))
            continue
        registered.append(bundle.name)
    return registered


def discover_env_bundles() -> List[str]:
    """Register bundles from every directory in ``$REPRO_BUNDLE_PATH``.

    Non-strict: failures land in :data:`BUNDLE_LOAD_ERRORS`.  Runs at
    ``repro.workloads`` import time, so spawned parallel workers (which
    inherit the environment and re-import the package) see the same
    registry as the parent process.
    """
    registered: List[str] = []
    for entry in os.environ.get(BUNDLE_PATH_ENV, "").split(os.pathsep):
        entry = entry.strip()
        if entry:
            registered.extend(
                discover_bundles(entry, source=f"bundle:{entry}",
                                 strict=False)
            )
    return registered


# ----------------------------------------------------------------------
# Export: builder workload -> bundle
# ----------------------------------------------------------------------
def format_bundle_toml(*, name: str, description: str, grid_dim: int,
                       block_dim: int, program: Program, image_bytes: int,
                       param_types: Dict[str, str],
                       tolerance: float = 0.0) -> str:
    """Canonical ``bundle.toml`` text (deterministic for round-trips)."""
    lines = [
        f"format = {FORMAT_VERSION}",
        "",
        "[kernel]",
        f"name = {format_toml_string(name)}",
    ]
    if description:
        lines.append(f"description = {format_toml_string(description)}")
    lines += [
        "",
        "[launch]",
        f"grid_dim = {grid_dim}",
        f"block_dim = {block_dim}",
        "",
        "[program]",
        f"name = {format_toml_string(program.name)}",
        f"registers = {program.num_registers}",
        f"predicates = {program.num_predicates}",
        f"shared_bytes = {program.shared_bytes}",
        f"local_bytes = {program.local_bytes}",
        "",
        "[image]",
        f"bytes = {image_bytes}",
        "",
        "[params]",
    ]
    lines += [f"{key} = {format_toml_string(kind)}"
              for key, kind in param_types.items()]
    lines += [
        "",
        "[verify]",
        f"tolerance = {format_number(tolerance)}",
    ]
    return "".join(f"{line}\n" for line in lines)


def export_workload(workload_name: str, *, config: str = "gf106",
                    bundle_name: Optional[str] = None,
                    workload_kwargs: Optional[Dict[str, object]] = None,
                    ) -> Dict[str, str]:
    """Run a registered workload once and capture it as bundle files.

    The workload is prepared and launched on a fresh GPU; the pre-launch
    memory image becomes ``memory.csv``, the words the launch changed
    become ``expected.csv``, and the launch parameters (rebased against
    the image for the workload's declared ``address_params``) become
    ``inputs.csv``.  Exact simulation cores are deterministic, so the
    resulting bundle verifies with ``tolerance = 0`` and reproduces the
    original workload's cycle counts byte-for-byte.
    """
    from repro.gpu.gpu import GPU
    from repro.gpu.configs import get_config
    from repro.workloads import WORKLOAD_REGISTRY, create_workload

    workload = create_workload(workload_name, **(workload_kwargs or {}))
    if type(workload).run is not Workload.run:
        raise BundleError(
            f"workload {workload_name!r} overrides run() (multi-launch); "
            f"a bundle captures exactly one launch and cannot express it"
        )
    try:
        description = WORKLOAD_REGISTRY.describe(workload_name)
    except Exception:
        description = ""

    gpu = GPU(get_config(config))
    program = workload.program
    spec = workload.prepare(gpu)
    memory = gpu.global_memory
    image_bytes = memory.bytes_allocated - IMAGE_BASE
    if image_bytes <= 0:
        raise BundleError(
            f"workload {workload_name!r} allocated no global memory; "
            f"nothing to export"
        )
    n_words = image_bytes // WORD_SIZE
    before = memory.load_array(IMAGE_BASE, n_words)

    gpu.launch(program, grid_dim=spec.grid_dim, block_dim=spec.block_dim,
               params=spec.params)
    if not workload.verify(gpu):
        raise BundleError(
            f"workload {workload_name!r} failed its own verification on "
            f"{config}; refusing to export a broken bundle"
        )
    after = memory.load_array(IMAGE_BASE, n_words)

    memory_rows = [(str(index * WORD_SIZE), format_number(value))
                   for index, value in enumerate(before) if value != 0.0]
    expected_rows = [(str(index * WORD_SIZE), format_number(after[index]))
                     for index in range(n_words)
                     if after[index] != before[index]]

    param_types: Dict[str, str] = {}
    input_rows: List[Tuple[str, str]] = []
    for key in program.param_names:
        if key not in spec.params:
            raise BundleError(
                f"workload {workload_name!r} did not supply parameter "
                f"{key!r}; cannot export"
            )
        value = float(spec.params[key])
        if key in spec.address_params:
            param_types[key] = "address"
            offset = value - IMAGE_BASE
            if offset < 0 or not offset.is_integer():
                raise BundleError(
                    f"workload {workload_name!r} address parameter {key!r} "
                    f"does not point into the image (value {value})"
                )
            input_rows.append((key, format_number(offset)))
        else:
            param_types[key] = "int" if value.is_integer() else "float"
            input_rows.append((key, format_number(value)))

    name = bundle_name or workload.name
    files = {
        "bundle.toml": format_bundle_toml(
            name=name, description=description, grid_dim=spec.grid_dim,
            block_dim=spec.block_dim, program=program,
            image_bytes=image_bytes, param_types=param_types,
        ),
        "program.csv": format_program(program),
        "memory.csv": _write_csv(MEMORY_COLUMNS, memory_rows),
        "inputs.csv": _write_csv(INPUTS_COLUMNS, input_rows),
        "expected.csv": _write_csv(MEMORY_COLUMNS, expected_rows),
    }
    load_bundle_files(files, origin=f"<export:{workload_name}>")
    return files
