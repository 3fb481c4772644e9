// LD_PRELOAD SIGPROF sampler: records the interrupted program counter
// (and its load-relative offset) every SAMPLER_US of process CPU time and
// writes "module+offset" lines to $SAMPLER_OUT at exit. No dependencies
// beyond libc; symbolise with addr2line -f -i -e <binary> <offsets>.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static void *samples[MAX_SAMPLES];
static volatile unsigned long n_samples;

static void on_prof(int sig, siginfo_t *si, void *uc_) {
    (void)sig; (void)si;
    ucontext_t *uc = uc_;
    unsigned long i = n_samples;
    if (i < MAX_SAMPLES) {
        samples[i] = (void *)uc->uc_mcontext.gregs[REG_RIP];
        n_samples = i + 1;
    }
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SAMPLER_OUT");
    FILE *f = fopen(path ? path : "sampler.out", "w");
    if (!f) return;
    for (unsigned long i = 0; i < n_samples; i++) {
        Dl_info info;
        if (dladdr(samples[i], &info) && info.dli_fname) {
            fprintf(f, "%s %#lx\n", info.dli_fname,
                    (unsigned long)((char *)samples[i] - (char *)info.dli_fbase));
        } else {
            fprintf(f, "? %p\n", samples[i]);
        }
    }
    fclose(f);
}

__attribute__((constructor)) static void init(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    const char *us = getenv("SAMPLER_US");
    long period = us ? atol(us) : 1000;
    struct itimerval it = {{0, period}, {0, period}};
    setitimer(ITIMER_PROF, &it, NULL);
    atexit(dump);
}
