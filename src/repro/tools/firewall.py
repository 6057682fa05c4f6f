"""The stateful-firewall exemplar's command line.

The paper's section 4 firewall as a standalone tool over the shared
pipeline driver::

    python -m repro.tools.firewall --rules rules.txt -r trace.pcap
    python -m repro.tools.firewall --rules rules.txt -r trace.pcap \
        --engine reference --parallel --workers 8

Rule files use the ``src-net dst-net allow|deny`` format of
:meth:`repro.apps.firewall.rules.RuleSet.parse`.  Parallel runs shard
by canonical host pair, so the merged decision stream is byte-identical
to a sequential run.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from ..apps.firewall.app import ENGINES, FirewallApp, FirewallLaneSpec
from ..apps.firewall.rules import RuleSet
from ..core import OPT_LEVELS
from ..host.cli import add_pipeline_args, add_service_args, run_host_app


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firewall",
        description="run the stateful firewall over a pcap trace on the "
                    "shared host pipeline",
    )
    parser.add_argument("--rules", required=True, metavar="FILE",
                        help="rule file ('src-net dst-net allow|deny' "
                             "per line, '*' as wildcard)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        metavar="SECONDS",
                        help="inactivity timeout of dynamic reverse "
                             "rules (default 300)")
    parser.add_argument("--engine", choices=ENGINES, default="compiled",
                        help="execution tier: HILTI compiled (default), "
                             "HILTI interpreted, or the pure-Python "
                             "reference")
    parser.add_argument("-O", "--opt-level", type=int,
                        choices=list(OPT_LEVELS), default=None,
                        help="HILTI optimization level for the compiled "
                             "tier")
    add_pipeline_args(parser)
    add_service_args(parser)
    return parser


def _read_rules(path: str) -> str:
    with open(path) as stream:
        return stream.read()


def _make_app_factory(rules_text: str):
    def make_app(args: argparse.Namespace, services) -> FirewallApp:
        ruleset = RuleSet.parse(rules_text,
                                timeout_seconds=args.timeout)
        return FirewallApp(ruleset, engine=args.engine,
                           opt_level=args.opt_level, services=services)
    return make_app


def _make_spec_factory(rules_text: str):
    def make_spec(args: argparse.Namespace) -> FirewallLaneSpec:
        return FirewallLaneSpec({
            "rules": rules_text,
            "timeout_seconds": args.timeout,
            "engine": args.engine,
            "opt_level": args.opt_level,
            "watchdog_budget": args.watchdog,
            "metrics": args.metrics,
            "trace": args.trace_flows,
        })
    return make_spec


def _summarize(stats: Dict) -> str:
    return (f", allowed {stats['allowed']}, denied {stats['denied']}, "
            f"ignored {stats['ignored']} ({stats['engine']} engine)")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    rules_text = _read_rules(args.rules)
    # Parse eagerly so rule-file errors surface before any trace work.
    RuleSet.parse(rules_text, timeout_seconds=args.timeout)
    return run_host_app(args, "firewall",
                        _make_app_factory(rules_text),
                        _make_spec_factory(rules_text),
                        results_name="decisions.log",
                        summarize=_summarize)


if __name__ == "__main__":
    sys.exit(main())
