"""TEAL frontend (parser, CFG, abstract stack interpretation) and detectors."""
