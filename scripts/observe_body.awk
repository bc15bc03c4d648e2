# observe_body.awk — prints one day's /v1/observe body for the smoke tests.
#
#   awk -v files=500 -v day=3 [-v drifted=1] -f scripts/observe_body.awk
#
# File i (id f%08d) has a fixed fraction b in [0, 1) that spreads sizes over
# three orders of magnitude; its request rates follow a weekly rhythm that
# moves with the day, so every day changes every file's features. The
# drifted regime is cold and bulky: sizes grow ~8x and read rates fall
# ~100x, the shift that makes a hot-trained policy overpay and the PSI
# detector fire.
BEGIN {
    if (files < 1) {
        print "observe_body.awk: -v files=N must be at least 1" > "/dev/stderr"
        exit 1
    }
    size0 = 0.01; size1 = 50; reads1 = 2000; writes1 = 20
    if (drifted) {
        size0 = 0.1; size1 = 400; reads1 = 20; writes1 = 2
    }
    printf "{\"files\":["
    for (i = 0; i < files; i++) {
        b = ((i + 1) * 0.6180339887498949) % 1
        printf "%s{\"id\":\"f%08d\",\"size_gb\":%.6f,\"reads\":%.6f,\"writes\":%.6f}", \
            (i ? "," : ""), i, size0 + b * b * size1, \
            b * reads1 * (1 + (i + day) % 7) / 7, b * writes1 * (1 + (i + day) % 3) / 3
    }
    print "]}"
}
