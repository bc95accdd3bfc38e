"""TEAL parsing: instructions, labels, pragmas, comments, unknown opcodes."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from centriscan.teal.parser import OPCODE_STACK_EFFECTS, Instruction, TealProgram, parse_teal

from oracle import reference_parse_teal


def _columns(program: TealProgram):
    return program.opcodes, program.immediates, list(program.lines)


def test_empty_program():
    program = parse_teal("")
    assert _columns(program) == ([], [], [])


def test_assert_pattern_five_lines():
    program = parse_teal('byte "manager"\napp_global_get\ntxn Sender\n==\nassert\n')
    assert program.opcodes == ["byte", "app_global_get", "txn", "==", "assert"]
    assert program.immediates == [('"manager"',), (), ("Sender",), (), ()]
    assert list(program.lines) == [1, 2, 3, 4, 5]
    assert program.lines.typecode == "I"  # machine ints, not int objects
    assert all(op in OPCODE_STACK_EFFECTS for op in program.opcodes)


def test_instructions_view_zips_the_columns_with_stack_effects():
    program = parse_teal('int 1\nfrobnicate 1 2\n\nbyte "x"')
    assert program.instructions == [
        Instruction("int", ("1",), 1, (0, 1)),
        Instruction("frobnicate", ("1", "2"), 2, None),
        Instruction("byte", ('"x"',), 4, (0, 1)),
    ]


def test_unknown_opcode_gets_unknown_delta_and_diagnostic():
    program = parse_teal("frobnicate 1 2")
    assert _columns(program) == (["frobnicate"], [("1", "2")], [1])
    assert "frobnicate" not in OPCODE_STACK_EFFECTS
    assert len(program.diagnostics) == 1


def test_pragma_version():
    program = parse_teal("#pragma version 8\nint 1")
    assert program.opcodes == ["int"] and program.diagnostics == []
    assert [(d.message, d.line) for d in parse_teal("int 1\n#pragma version v8").diagnostics] \
        == [("unparseable version pragma 'v8'", 2)]


def test_comment_stripping_preserves_string_immediates():
    program = parse_teal('byte "http://x" // real comment\nint 1 // tail')
    assert program.immediates == [('"http://x"',), ("1",)]


def test_quoted_immediate_with_spaces_stays_one_field():
    program = parse_teal('byte "hello world"')
    assert program.immediates == [('"hello world"',)]


def test_labels_map_to_next_instruction_index():
    program = parse_teal("int 1\ntarget:\nint 2\nb target")
    assert program.labels == {"target": 1}
    assert len(program.opcodes) == 3


def test_duplicate_label_diagnosed_last_wins():
    program = parse_teal("a:\nint 1\na:\nint 2")
    assert program.labels["a"] == 1
    assert any("duplicate label" in d.message for d in program.diagnostics)


def test_undefined_branch_target_diagnosed():
    program = parse_teal("bz nowhere")
    assert any("undefined branch target" in d.message for d in program.diagnostics)


def test_blank_and_comment_only_lines_skipped():
    program = parse_teal("\n// only a comment\n   \nint 1\n")
    assert _columns(program) == (["int"], [("1",)], [4])


def test_only_newline_ends_a_line():
    # Other line breaks are whitespace: a string immediate keeps U+2028, a
    # comment runs on past a form feed, and `\r\n` ends one line.
    program = parse_teal('byte "a\u2028b"\nint 1 // x\x0cassert\r\nint 2\r\n')
    assert _columns(program) == (["byte", "int", "int"], [('"a\u2028b"',), ("1",), ("2",)],
                                 [1, 2, 3])


@given(st.text(max_size=400))
@settings(max_examples=200, deadline=None)
def test_parse_teal_totality(src):
    program = parse_teal(src)
    assert isinstance(program, TealProgram)


@given(st.text(
    alphabet=st.sampled_from(list('abzint "\\/:=#\n 0123456789')),
    max_size=200,
))
@settings(max_examples=300, deadline=None)
def test_parse_teal_totality_structured(src):
    assert isinstance(parse_teal(src), TealProgram)


def test_location_soundness():
    src = 'int 1\nbyte "x"\nfrobnicate\nlbl:\nb lbl'
    program = parse_teal(src)
    n_lines = len(src.splitlines())
    for line in program.lines:
        assert 1 <= line <= n_lines
    for diag in program.diagnostics:
        assert 1 <= diag.line <= n_lines


_QUOTE_FREE = st.one_of(
    st.text(alphabet=st.characters(blacklist_characters='"'), max_size=120),
    st.lists(st.sampled_from([
        "int", "1", "byte", "0x01", "txn", "Sender", "//", "/", "x//y", " ",
        "\t", "　", "\n", "\r\n", "\x0b", "lbl:", ":", "#pragma", "version",
        "5", "b", "lbl", "err",
    ]), max_size=40).map("".join),
)


@given(_QUOTE_FREE)
@settings(max_examples=300, deadline=None)
def test_quote_free_lines_split_on_whitespace(source):
    expected = []
    for lineno, line in enumerate(source.split("\n"), 1):
        fields = line.split("//", 1)[0].split()
        if fields and not fields[0].startswith("#") and not fields[0].endswith(":"):
            expected.append((fields[0], tuple(fields[1:]), lineno))
    program = parse_teal(source)
    assert list(zip(*_columns(program))) == expected



# Lines that repeat in real programs, and the lines that must be parsed at
# every occurrence: labels (duplicates among them), content after a label,
# directives and unknown opcodes.
_LABEL_LINES = {"lbl:": "lbl", "other:": "other", "lbl: int 2": "lbl"}
_REPEATED_LINES = st.lists(st.sampled_from([
    "int 1", "int 1 // c", 'byte "a b"', 'byte "x" // y', "txn Sender", "==",
    "assert", "bz lbl", "b other", "callsub nowhere", "b", "retsub",
    "#pragma version 8", "#define x", "frobnicate 3", "mystery", "", "// only",
    "  int   1  ", *_LABEL_LINES,
]), max_size=30)


@given(_REPEATED_LINES)
@settings(max_examples=300, deadline=None)
def test_repeated_source_parses_as_twice_the_columns(lines):
    # A line parsed once and reused must give what parsing it again gives:
    # the same instruction at its own line, and every diagnostic again.
    source = "\n".join(lines)
    once = parse_teal(source)
    twice = parse_teal(source + "\n" + source)
    offset = len(lines)
    assert twice.opcodes == once.opcodes * 2
    assert twice.immediates == once.immediates * 2
    assert list(twice.lines) == list(once.lines) + [line + offset for line in once.lines]

    def notes(program):
        # A branch in the first copy may target a label of the second.
        return sorted((d.line, d.message) for d in program.diagnostics
                      if not d.message.startswith("undefined branch target"))

    # In the second copy every label is a duplicate.
    duplicate = "duplicate label '{}'; last definition wins"
    expected = notes(once) + [
        (line + offset, message) for line, message in notes(once)
        if not message.startswith("duplicate label")] + [
        (number + offset, duplicate.format(_LABEL_LINES[line]))
        for number, line in enumerate(lines, 1) if line in _LABEL_LINES]
    assert notes(twice) == sorted(expected)


# Pieces of lines: quotes, backslashes, comments, directives, labels,
# whitespace, branch opcodes and their targets, known and unknown opcodes.
_LINE_PIECES = ['"', "\\", "//", "/", "#", ":", " ", "\t", "int", "1", "byte", "b", "bz",
                "callsub", "lbl", "#pragma", "version", "frob", "x", "b lbl", "lbl:"]


@given(st.lists(st.lists(st.sampled_from(_LINE_PIECES), max_size=8).map("".join),
                min_size=1, max_size=8),
       st.lists(st.integers(0, 7), max_size=30))
@example(["b lbl", "lbl:", 'byte "//" // c'], [0, 2, 1])  # a target past the end
@settings(max_examples=400, deadline=None)
def test_parse_teal_matches_the_line_by_line_reference(lines, picks):
    # A source that repeats a few distinct lines, each decoded once.
    source = "\n".join(lines[i % len(lines)] for i in picks)
    program, reference = parse_teal(source), reference_parse_teal(source)
    assert _columns(program) == _columns(reference)
    assert program.labels == reference.labels
    assert program.diagnostics == reference.diagnostics
