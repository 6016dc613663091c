#!/bin/sh
# Lines-of-code inventory, reproducing the paper's two code-size claims:
#   §2: "of 25,000 lines of kernel code, 12,500 are network and protocol
#        related"
#   §3: "The entire protocol is 847 lines of code, compared to 2200 lines
#        for TCP."
# Counts non-blank, non-pure-comment lines of .h/.cc under src/.  Exits 1
# when IL outgrows the paper's 847 lines.
cd "$(dirname "$0")/.." || exit 1

count() {
  # shellcheck disable=SC2068
  cat $@ 2>/dev/null | grep -v '^[[:space:]]*$' | grep -cv '^[[:space:]]*//'
}

total=$(count src/*/*.h src/*/*.cc)
il=$(count src/inet/il.h src/inet/il.cc)
tcp=$(count src/inet/tcp.h src/inet/tcp.cc)
udp=$(count src/inet/udp.h src/inet/udp.cc)
net=$(count src/inet/*.h src/inet/*.cc src/dk/*.h src/dk/*.cc \
            src/dev/*.h src/dev/*.cc src/ninep/*.h src/ninep/*.cc \
            src/stream/*.h src/stream/*.cc src/csdns/*.h src/csdns/*.cc \
            src/dial/*.h src/dial/*.cc src/ndb/*.h src/ndb/*.cc)

echo "module LoC (non-blank, non-comment):"
for d in src/*/; do
  printf '  %-10s %6s\n' "$(basename "$d")" "$(count "$d"/*.h "$d"/*.cc)"
done
echo
echo "total library:           $total"
echo "network+protocol related: $net  ($(awk -v a="$net" -v b="$total" 'BEGIN{printf "%.0f%%", 100*a/b}') of library; paper: 12500/25000 = 50% of kernel)"
echo
echo "IL:  $il lines   (paper:  847)"
echo "TCP: $tcp lines   (paper: 2200)"
awk -v il="$il" -v tcp="$tcp" 'BEGIN{printf "TCP/IL ratio: %.2f (paper: 2.60)\n", tcp/il}'
echo "UDP: $udp lines"
if [ "$il" -gt 847 ]; then
  echo "loc.sh: IL is $il lines, over the paper's 847" >&2
  exit 1
fi
