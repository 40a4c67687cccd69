"""The crawler extensions the paper proposed but never built.

Section 7.2 names multi-language support as "the single greatest
improvement to the crawler's coverage", and §6.2.2 suggests search
engines could locate registration pages the crawler cannot.  Both are
implemented; this example crawls the same ranked batch three ways and
shows the coverage gained at each step.

Run:  python examples/crawler_extensions.py [sites]
"""

import sys

from repro.analysis.extensions import coverage_sweep, render_coverage


def main() -> None:
    sites = int(sys.argv[1]) if len(sys.argv) > 1 else 250
    print(render_coverage(coverage_sweep(sites), sites))
    print("\nThe paper (§7.2): non-English sites are >40% of the ranking and "
          "\nentirely unreachable to the English-only pilot crawler; search "
          "\nengines can recover the §6.2.2 'registration page not obvious' misses.")


if __name__ == "__main__":
    main()
