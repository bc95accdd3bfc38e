"""tools/unused_imports.py: the names a module imports or privately
defines and never reads."""

import importlib.util
import os

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "unused_imports.py")
_spec = importlib.util.spec_from_file_location("unused_imports", _TOOL)
unused_imports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unused_imports)


def test_unread_imports_and_private_module_names_are_named(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nimport sys\n_READ = 1\n_ORPHAN, PUBLIC = 2, 3\n"
        "def _helper():\n    return _READ, sys\nclass _Unused:\n    pass\n"
        "def public():\n    _local = 4\n    return _helper()\n"
        "__all__ = ['public']\n_TYPED: int = 5\n", encoding="utf-8")
    assert unused_imports.unused_names(module) == [
        (1, "os", "imported"), (4, "_ORPHAN", "defined"), (7, "_Unused", "defined"),
        (13, "_TYPED", "defined")]
