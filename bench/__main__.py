"""``python -m bench run`` / ``python -m bench compare A.json B.json``."""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    from bench import compare, orchestrate

    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, module in (("run", orchestrate), ("compare", compare)):
        sub = commands.add_parser(name, help=module.__doc__.split("\n")[0])
        module.add_arguments(sub)
        sub.set_defaults(handler=module.run)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
